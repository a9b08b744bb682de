package graph

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// mutationFixture builds a small random labelled, featured, masked graph.
func mutationFixture(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	for i := 0; i < 3*n; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	x := matrix.New(n, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for v := range labels {
		labels[v] = rng.Intn(4)
	}
	g := New(n, edges, x, labels, 4)
	for v := 0; v < n; v++ {
		switch v % 3 {
		case 0:
			g.TrainMask[v] = true
		case 1:
			g.ValMask[v] = true
		default:
			g.TestMask[v] = true
		}
	}
	return g
}

// allNormKinds enumerates every adjacency normalisation the cache keys on.
var allNormKinds = []sparse.NormKind{sparse.NormSym, sparse.NormRW, sparse.NormReverse}

// missingEdge finds a node pair not yet connected in g.
func missingEdge(t *testing.T, g *Graph) [2]int {
	t.Helper()
	have := make(map[[2]int]bool, len(g.Edges))
	for _, e := range g.Edges {
		have[e] = true
	}
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if !have[[2]int{u, v}] {
				return [2]int{u, v}
			}
		}
	}
	t.Fatal("fixture graph is complete")
	return [2]int{}
}

// sameCSR reports bit-equality of two CSR matrices.
func sameCSR(a, b *sparse.CSR) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// TestAddEdgesDropsEveryNormCache is the cache-coherence regression test:
// after AddEdges, the NormAdj matrix, the NormAdjPlan propagation plan and
// the PropagatedX first hop of every NormKind must reflect the new topology
// — a stale cache for any kind would silently serve the old graph.
func TestAddEdgesDropsEveryNormCache(t *testing.T) {
	g := mutationFixture(40, 1)
	before := make(map[sparse.NormKind]*sparse.CSR)
	plansBefore := make(map[sparse.NormKind]*sparse.Plan)
	axBefore := make(map[sparse.NormKind]*matrix.Dense)
	for _, kind := range allNormKinds {
		plansBefore[kind] = g.NormAdjPlan(kind)
		before[kind] = g.NormAdj(kind)
		axBefore[kind] = g.PropagatedX(kind)
		if g.PropagatedX(kind) != axBefore[kind] {
			t.Fatalf("kind %v: PropagatedX not cached between calls", kind)
		}
	}
	// Connect a pair that is not yet adjacent, so the topology genuinely
	// changes and every normalised value in their rows must follow.
	g.AddEdges([][2]int{missingEdge(t, g)})
	fresh := New(g.N, g.Edges, g.X, g.Labels, g.Classes)
	for _, kind := range allNormKinds {
		if g.NormAdjPlan(kind) == plansBefore[kind] {
			t.Fatalf("kind %v: NormAdjPlan still the pre-mutation plan", kind)
		}
		got := g.NormAdj(kind)
		if sameCSR(got, before[kind]) {
			t.Fatalf("kind %v: NormAdj unchanged after AddEdges", kind)
		}
		if want := fresh.NormAdj(kind); !sameCSR(got, want) {
			t.Fatalf("kind %v: post-mutation NormAdj differs from scratch rebuild", kind)
		}
		ax := g.PropagatedX(kind)
		if ax == axBefore[kind] || matrix.Equal(ax, axBefore[kind], 0) {
			t.Fatalf("kind %v: PropagatedX unchanged after AddEdges", kind)
		}
		if want := fresh.NormAdjPlan(kind).MulDense(g.X); !matrix.Equal(ax, want, 0) {
			t.Fatalf("kind %v: post-mutation PropagatedX differs from scratch product", kind)
		}
	}
}

// TestRemoveEdgesDropsEveryNormCache mirrors the AddEdges regression for
// deletion, and checks InvalidateAdj alone forces a rebuild.
func TestRemoveEdgesDropsEveryNormCache(t *testing.T) {
	g := mutationFixture(30, 2)
	for _, kind := range allNormKinds {
		g.NormAdjPlan(kind)
		g.PropagatedX(kind)
	}
	victim := g.Edges[0]
	g.RemoveEdges([][2]int{victim})
	fresh := New(g.N, g.Edges, g.X, g.Labels, g.Classes)
	for _, kind := range allNormKinds {
		if !sameCSR(g.NormAdj(kind), fresh.NormAdj(kind)) {
			t.Fatalf("kind %v: post-removal NormAdj differs from scratch rebuild", kind)
		}
		if !matrix.Equal(g.PropagatedX(kind), fresh.NormAdjPlan(kind).MulDense(g.X), 0) {
			t.Fatalf("kind %v: post-removal PropagatedX differs from scratch product", kind)
		}
	}

	// Explicit invalidation must also drop the plain adjacency cache and the
	// propagated features.
	adj, ax := g.Adj(), g.PropagatedX(sparse.NormSym)
	g.InvalidateAdj()
	if g.Adj() == adj {
		t.Fatal("Adj still the pre-invalidation cache")
	}
	if g.PropagatedX(sparse.NormSym) == ax {
		t.Fatal("PropagatedX still the pre-invalidation cache")
	}
}

// TestPropagatedXFollowsFeatureAndPlanReplacement covers the two ways the
// first-hop cache goes stale without a topology mutation: g.X is assigned a
// new matrix, or the cached plan it was computed from is replaced (an
// InvalidateAdj and rebuild racing the product; here the entry is swapped
// directly).
func TestPropagatedXFollowsFeatureAndPlanReplacement(t *testing.T) {
	g := mutationFixture(30, 4)
	old := g.PropagatedX(sparse.NormSym)

	g.X = matrix.Scale(2, g.X)
	ax := g.PropagatedX(sparse.NormSym)
	if ax == old {
		t.Fatal("PropagatedX served the product of the replaced feature matrix")
	}
	if !matrix.Equal(ax, g.NormAdjPlan(sparse.NormSym).MulDense(g.X), 0) {
		t.Fatal("PropagatedX after replacing X differs from the plan product")
	}
	if g.PropagatedX(sparse.NormSym) != ax {
		t.Fatal("PropagatedX not cached again after replacing X")
	}

	rw := g.NormAdjPlan(sparse.NormRW)
	g.adjMu.Lock()
	g.norm[sparse.NormSym] = rw
	g.adjMu.Unlock()
	replaced := g.PropagatedX(sparse.NormSym)
	if replaced == ax || !matrix.Equal(replaced, rw.MulDense(g.X), 0) {
		t.Fatal("PropagatedX ignored the replaced plan")
	}
}

// TestPropagatedXConcurrentColdFill has many goroutines hit one cold entry
// at once (run under -race): every caller must get the same bits, and once
// the dust settles the cache holds one matrix.
func TestPropagatedXConcurrentColdFill(t *testing.T) {
	g := mutationFixture(60, 5)
	want := New(g.N, g.Edges, g.X, g.Labels, g.Classes).NormAdjPlan(sparse.NormSym).MulDense(g.X)
	const callers = 8
	got := make([]*matrix.Dense, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.PropagatedX(sparse.NormSym)
		}()
	}
	wg.Wait()
	settled := g.PropagatedX(sparse.NormSym)
	for i, ax := range got {
		if !matrix.Equal(ax, want, 0) {
			t.Fatalf("caller %d: PropagatedX differs from the plan product", i)
		}
	}
	if g.PropagatedX(sparse.NormSym) != settled {
		t.Fatal("cache did not settle on one matrix")
	}
}

// TestSubgraphMatchesScratchRebuild is the remap property test: the induced
// subgraph must equal a graph built from scratch out of the remapped edge
// list and the selected feature/label/mask rows — for a shuffled,
// non-contiguous node selection.
func TestSubgraphMatchesScratchRebuild(t *testing.T) {
	g := mutationFixture(50, 3)
	idx := []int{41, 3, 17, 8, 29, 0, 45, 12, 33, 21, 5}
	sub := g.Subgraph(idx)
	remap := make(map[int]int, len(idx)) // old id -> new id, inverted from idx
	for newID, old := range idx {
		remap[old] = newID
	}

	if sub.N != len(idx) || sub.Classes != g.Classes {
		t.Fatalf("subgraph shape %d/%d", sub.N, sub.Classes)
	}
	for newID, old := range idx {
		if sub.Labels[newID] != g.Labels[old] {
			t.Fatalf("label of new %d (old %d) is %d, want %d", newID, old, sub.Labels[newID], g.Labels[old])
		}
		if sub.TrainMask[newID] != g.TrainMask[old] ||
			sub.ValMask[newID] != g.ValMask[old] ||
			sub.TestMask[newID] != g.TestMask[old] {
			t.Fatalf("masks of new %d (old %d) not carried over", newID, old)
		}
		for j := 0; j < g.X.Cols; j++ {
			if sub.X.Row(newID)[j] != g.X.Row(old)[j] {
				t.Fatalf("feature row of new %d (old %d) differs at %d", newID, old, j)
			}
		}
	}

	// Scratch rebuild: remap the kept edges by hand and compare adjacency.
	var edges [][2]int
	for _, e := range g.Edges {
		nu, okU := remap[e[0]]
		nv, okV := remap[e[1]]
		if okU && okV {
			edges = append(edges, [2]int{nu, nv})
		}
	}
	scratch := New(len(idx), edges, nil, nil, 0)
	if !sameCSR(sub.Adj(), scratch.Adj()) {
		t.Fatal("subgraph adjacency differs from scratch rebuild")
	}
	for _, kind := range allNormKinds {
		if !sameCSR(sub.NormAdj(kind), scratch.NormAdj(kind)) {
			t.Fatalf("kind %v: subgraph NormAdj differs from scratch rebuild", kind)
		}
	}
	// Membership must be exact: an edge with exactly one endpoint selected
	// may not survive.
	for _, e := range sub.Edges {
		if e[0] >= sub.N || e[1] >= sub.N {
			t.Fatalf("edge %v outside subgraph", e)
		}
	}
}
