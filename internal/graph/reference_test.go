package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// referenceSubgraph is Subgraph as it stood before its remap became a dense
// array: a map from old to new id, probed twice per edge. It is kept as the
// statement of what Subgraph must return.
func referenceSubgraph(g *Graph, idx []int) *Graph {
	remap := make(map[int]int, len(idx))
	for newID, old := range idx {
		remap[old] = newID
	}
	var edges [][2]int
	for _, e := range g.Edges {
		nu, okU := remap[e[0]]
		nv, okV := remap[e[1]]
		if okU && okV {
			edges = append(edges, [2]int{nu, nv})
		}
	}
	var x *matrix.Dense
	if g.X != nil {
		x = matrix.SelectRows(g.X, idx)
	}
	labels := make([]int, len(idx))
	sub := New(len(idx), edges, x, labels, g.Classes)
	for newID, old := range idx {
		labels[newID] = g.Labels[old]
		sub.TrainMask[newID] = g.TrainMask[old]
		sub.ValMask[newID] = g.ValMask[old]
		sub.TestMask[newID] = g.TestMask[old]
	}
	return sub
}

// referenceRemoveEdges is RemoveEdges as it stood before the drop set became
// a sorted list: a map of the dropped pairs.
func referenceRemoveEdges(g *Graph, edges [][2]int) {
	if len(edges) == 0 {
		return
	}
	drop := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		drop[[2]int{u, v}] = true
	}
	kept := g.Edges[:0]
	for _, e := range g.Edges {
		if !drop[e] {
			kept = append(kept, e)
		}
	}
	g.Edges = kept
	g.InvalidateAdj()
}

// referenceSplitTransductive is SplitTransductive as it stood before its
// classes became a slice: a map from class to nodes, walked in sorted order.
func referenceSplitTransductive(g *Graph, trainFrac, valFrac float64, rng *rand.Rand) {
	byClass := make(map[int][]int)
	for i, c := range g.Labels {
		byClass[c] = append(byClass[c], i)
	}
	for i := range g.TrainMask {
		g.TrainMask[i], g.ValMask[i], g.TestMask[i] = false, false, false
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		nodes := byClass[c]
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		nTrain := int(float64(len(nodes)) * trainFrac)
		if nTrain == 0 && len(nodes) > 0 {
			nTrain = 1
		}
		nVal := int(float64(len(nodes)) * valFrac)
		for i, v := range nodes {
			switch {
			case i < nTrain:
				g.TrainMask[v] = true
			case i < nTrain+nVal:
				g.ValMask[v] = true
			default:
				g.TestMask[v] = true
			}
		}
	}
}

// sameGraph reports whether a and b hold the same nodes, edges, feature
// bits, labels and masks.
func sameGraph(a, b *Graph) bool {
	return a.N == b.N && a.Classes == b.Classes &&
		reflect.DeepEqual(a.Edges, b.Edges) && reflect.DeepEqual(a.X, b.X) &&
		reflect.DeepEqual(a.Labels, b.Labels) && reflect.DeepEqual(a.TrainMask, b.TrainMask) &&
		reflect.DeepEqual(a.ValMask, b.ValMask) && reflect.DeepEqual(a.TestMask, b.TestMask)
}

// TestSubgraphMatchesReference: on random graphs, any selection — empty,
// everything, a shuffled subset, one listing a node twice — induces the
// subgraph the map-based reference induces.
func TestSubgraphMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := mutationFixture(5+rng.Intn(60), seed)
		perm := rng.Perm(g.N)
		subset := perm[:rng.Intn(g.N)]
		selections := map[string][]int{
			"empty":  {},
			"all":    perm,
			"subset": subset,
			"sorted": append([]int(nil), subset...),
		}
		sort.Ints(selections["sorted"])
		if len(subset) > 0 {
			selections["repeat"] = append(append([]int(nil), subset...), subset[0])
		}
		for name, idx := range selections {
			if !sameGraph(g.Subgraph(idx), referenceSubgraph(g, idx)) {
				t.Logf("seed %d, %s selection %v: Subgraph differs from the reference", seed, name, idx)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveEdgesMatchesReference: dropping present edges, absent ones,
// reversed and repeated pairs leaves the edges the map-based reference
// leaves, in the same order.
func TestRemoveEdgesMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := mutationFixture(3+rng.Intn(40), seed)
		var drop [][2]int
		for i := rng.Intn(2 * len(g.Edges)); i > 0; i-- {
			if e := g.Edges[rng.Intn(len(g.Edges))]; rng.Intn(2) == 0 {
				drop = append(drop, [2]int{e[1], e[0]})
			} else {
				drop = append(drop, e)
			}
			drop = append(drop, [2]int{rng.Intn(g.N), rng.Intn(g.N)})
		}
		want := g.Clone()
		referenceRemoveEdges(want, drop)
		g.RemoveEdges(drop)
		return reflect.DeepEqual(g.Edges, want.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitTransductiveMatchesReference: classes walked by index give the
// masks and rng draws of the map walked in sorted class order, also when
// some classes have no nodes.
func TestSplitTransductiveMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, classes := 1+rng.Intn(80), 1+rng.Intn(8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(classes) / 2 * 2 // odd classes stay empty
		}
		got, want := New(n, nil, nil, labels, classes), New(n, nil, nil, labels, classes)
		trainFrac, valFrac := rng.Float64()/2, rng.Float64()/2
		gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got.SplitTransductive(trainFrac, valFrac, gotRNG)
		referenceSplitTransductive(want, trainFrac, valFrac, wantRNG)
		return sameGraph(got, want) && gotRNG.Int63() == wantRNG.Int63()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
