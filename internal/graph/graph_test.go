package graph

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// twoBlocks returns a graph with two fully homophilous triangles of
// different classes joined by one heterophilous bridge.
func twoBlocks() *Graph {
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}}
	labels := []int{0, 0, 0, 1, 1, 1}
	x := matrix.New(6, 2)
	return New(6, edges, x, labels, 2)
}

func TestCanonicalize(t *testing.T) {
	edges := Canonicalize([][2]int{{2, 1}, {1, 2}, {0, 0}, {3, 1}})
	want := [][2]int{{0, 0}, {1, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("got %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
}

// referenceCanonicalize is the map-and-sort definition of Canonicalize, kept
// here as the reference that its one-pass shortcut for canonical input, its
// counting sort for dense ids and its plain sort for sparse ones are held to.
func referenceCanonicalize(edges [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(edges))
	out := make([][2]int, 0, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if k := [2]int{u, v}; !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestCanonicalizeMatchesReference: canonical input (which takes the one-pass
// shortcut) and every way of not being canonical — a reversed endpoint pair, a
// duplicate, a shuffle, nothing at all — come out as the reference says, and
// the result never aliases the input.
func TestCanonicalizeMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		var raw [][2]int
		for i := rng.Intn(40); i > 0; i-- {
			raw = append(raw, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		canonical := referenceCanonicalize(raw)
		variants := map[string][][2]int{"canonical": canonical, "empty": nil}
		if len(canonical) > 0 {
			i := rng.Intn(len(canonical))
			e := canonical[i]
			reversed := append([][2]int(nil), canonical...)
			reversed[i] = [2]int{e[1], e[0]}
			variants["reversed"] = reversed
			variants["duplicated"] = append(append([][2]int(nil), canonical[:i+1]...), canonical[i:]...)
			shuffled := append([][2]int(nil), canonical...)
			rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			variants["shuffled"] = shuffled
		}
		for name, in := range variants {
			before := append([][2]int(nil), in...)
			got := Canonicalize(in)
			if want := referenceCanonicalize(in); !reflect.DeepEqual(got, want) {
				t.Logf("%s %v: got %v, want %v", name, in, got, want)
				return false
			}
			for i := range got {
				got[i] = [2]int{-1, -1}
			}
			for i := range in {
				if in[i] != before[i] {
					t.Logf("%s: writing the result changed the input", name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalizeHostileIDs: ids a caller controls — negative, 2^40-sized,
// the two ends of the int range in one list — are canonicalised like any
// other, without a panic and without memory in proportion to an id.
func TestCanonicalizeHostileIDs(t *testing.T) {
	const big = 1 << 40
	cases := map[string][][2]int{
		"negative":      {{-1, -5}, {3, -1}, {-5, -1}, {-1, -1}, {-1, 3}},
		"huge":          {{big, 1}, {big + 7, big}, {1, big}, {big, big}, {0, 0}},
		"huge span":     {{math.MaxInt, math.MinInt}, {math.MinInt, math.MaxInt}, {0, 0}, {math.MinInt, math.MinInt}},
		"dense at 2^40": {{big + 2, big + 1}, {big + 1, big}, {big + 1, big + 2}, {big, big}, {big + 2, big + 2}, {big, big}},
		"offset span":   {{-3, 2}, {2, -3}, {1, 1}, {-3, -3}, {0, -2}, {1, 1}, {2, 2}},
	}
	for name, in := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := Canonicalize(in)
		runtime.ReadMemStats(&after)
		if want := referenceCanonicalize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: allocated %d bytes for %d edges", name, grew, len(in))
		}
	}
}

// decodeFuzzEdges turns fuzz bytes into an edge list: the first byte picks a
// shift of 0, 20 or 40 bits, every following pair of bytes is one edge whose
// signed endpoints are shifted by it, so ids run negative and up to 2^47.
// Capped at 512 edges so adversarial inputs stay cheap.
func decodeFuzzEdges(data []byte) [][2]int {
	if len(data) == 0 {
		return nil
	}
	shift := 20 * (uint(data[0]) % 3)
	rest := data[1:]
	if len(rest) > 1024 {
		rest = rest[:1024]
	}
	var edges [][2]int
	for i := 0; i+1 < len(rest); i += 2 {
		edges = append(edges, [2]int{int(int8(rest[i])) << shift, int(int8(rest[i+1])) << shift})
	}
	return edges
}

// FuzzCanonicalize holds Canonicalize to its reference on arbitrary edge
// lists, and its output to being canonical and a fixed point. The seed corpus
// lives in testdata/fuzz/FuzzCanonicalize; CI runs the target for a bounded
// window. Run locally with:
//
//	go test -run='^$' -fuzz='^FuzzCanonicalize$' -fuzztime=30s ./internal/graph
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x02, 0x01, 0x01, 0x02, 0x00, 0x00, 0x03, 0x01})
	f.Add([]byte{0x02, 0xff, 0x7f, 0x80, 0x80, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzEdges(data)
		got := Canonicalize(in)
		if want := referenceCanonicalize(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("Canonicalize(%v) = %v, want %v", in, got, want)
		}
		if !isCanonical(got) {
			t.Fatalf("Canonicalize(%v) = %v is not canonical", in, got)
		}
		if again := Canonicalize(got); !reflect.DeepEqual(again, got) {
			t.Fatalf("Canonicalize is not idempotent on %v: %v", got, again)
		}
	})
}

func TestEdgeHomophily(t *testing.T) {
	g := twoBlocks()
	// 6 intra-class edges, 1 bridge => 6/7.
	if got := g.EdgeHomophily(); math.Abs(got-6.0/7.0) > 1e-12 {
		t.Fatalf("EdgeHomophily = %v, want %v", got, 6.0/7.0)
	}
}

func TestNodeHomophily(t *testing.T) {
	g := twoBlocks()
	// Nodes 0,1,4,5: homophily 1. Nodes 2,3: 2/3 each.
	want := (4.0 + 2.0*2.0/3.0) / 6.0
	if got := g.NodeHomophily(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("NodeHomophily = %v, want %v", got, want)
	}
}

func TestHomophilyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := New(n, edges, nil, labels, 3)
		eh, nh := g.EdgeHomophily(), g.NodeHomophily()
		return eh >= 0 && eh <= 1 && nh >= 0 && nh <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsAndDegrees(t *testing.T) {
	g := twoBlocks()
	nbrs := g.Neighbors(2)
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors(2) = %v, want 3 neighbours", nbrs)
	}
	d := g.Degrees()
	if d[2] != 3 || d[0] != 2 {
		t.Fatalf("Degrees = %v", d)
	}
}

func TestSubgraph(t *testing.T) {
	g := twoBlocks()
	g.TrainMask[3] = true
	idx := []int{3, 4, 5}
	sub := g.Subgraph(idx)
	if sub.N != 3 || sub.M() != 3 {
		t.Fatalf("subgraph %d nodes %d edges, want 3/3", sub.N, sub.M())
	}
	if sub.Labels[0] != 1 {
		t.Fatal("labels not remapped")
	}
	if !sub.TrainMask[slices.Index(idx, 3)] {
		t.Fatal("train mask not carried over")
	}
	if got := sub.EdgeHomophily(); got != 1 {
		t.Fatalf("pure block homophily = %v, want 1", got)
	}
}

func TestSubgraphDropsCrossEdges(t *testing.T) {
	g := twoBlocks()
	sub := g.Subgraph([]int{2, 3})
	if sub.M() != 1 {
		t.Fatalf("bridge-only subgraph has %d edges, want 1", sub.M())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := twoBlocks()
	c := g.Clone()
	c.AddEdges([][2]int{{0, 5}})
	c.Labels[0] = 1
	c.X.Set(0, 0, 9)
	if g.HasEdge(0, 5) || g.Labels[0] == 1 || g.X.At(0, 0) == 9 {
		t.Fatal("Clone must be fully independent")
	}
}

func TestAddEdgesDedupAndInvalidate(t *testing.T) {
	g := twoBlocks()
	m0 := g.M()
	_ = g.Adj() // populate cache
	g.AddEdges([][2]int{{0, 1}, {0, 4}})
	if g.M() != m0+1 {
		t.Fatalf("M = %d, want %d", g.M(), m0+1)
	}
	if g.Adj().At(0, 4) != 1 {
		t.Fatal("cached adjacency not invalidated")
	}
}

func TestRemoveEdgesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := twoBlocks()
	g.RemoveEdgesRandom(1.0, rng)
	if g.M() != 0 {
		t.Fatalf("frac=1 should remove all edges, left %d", g.M())
	}
	g2 := twoBlocks()
	g2.RemoveEdgesRandom(0, rng)
	if g2.M() != 7 {
		t.Fatal("frac=0 should remove nothing")
	}
}

func TestHasEdge(t *testing.T) {
	g := twoBlocks()
	if !g.HasEdge(3, 2) {
		t.Fatal("HasEdge must be order-insensitive")
	}
	if g.HasEdge(0, 5) {
		t.Fatal("phantom edge")
	}
}

func TestLabelDistribution(t *testing.T) {
	g := twoBlocks()
	d := g.LabelDistribution()
	if d[0] != 3 || d[1] != 3 {
		t.Fatalf("LabelDistribution = %v", d)
	}
}

func TestSplitTransductiveStratified(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
	}
	g := New(n, nil, nil, labels, 4)
	g.SplitTransductive(0.2, 0.4, rng)
	s := g.Summary()
	if s.Train != 20 || s.Val != 40 || s.Test != 40 {
		t.Fatalf("split = %d/%d/%d, want 20/40/40", s.Train, s.Val, s.Test)
	}
	// Every class must appear in training (stratification).
	perClass := make([]int, 4)
	for i, m := range g.TrainMask {
		if m {
			perClass[labels[i]]++
		}
	}
	for c, k := range perClass {
		if k == 0 {
			t.Fatalf("class %d absent from training set", c)
		}
	}
	// Masks must be disjoint and exhaustive.
	for i := 0; i < n; i++ {
		cnt := 0
		for _, m := range []bool{g.TrainMask[i], g.ValMask[i], g.TestMask[i]} {
			if m {
				cnt++
			}
		}
		if cnt != 1 {
			t.Fatalf("node %d in %d masks", i, cnt)
		}
	}
}

func TestMaskHelpers(t *testing.T) {
	mask := []bool{true, false, true}
	idx := MaskIdx(mask)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("MaskIdx = %v", idx)
	}
	if CountMask(mask) != 2 {
		t.Fatal("CountMask wrong")
	}
}

func TestSummary(t *testing.T) {
	g := twoBlocks()
	s := g.Summary()
	if s.Nodes != 6 || s.Edges != 7 || s.Features != 2 || s.Classes != 2 {
		t.Fatalf("Summary = %+v", s)
	}
}

// Property: subgraph homophily of a single-class node set is always 1 when
// it has at least one internal edge.
func TestQuickSingleClassSubgraphHomophily(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(6)
		labels := make([]int, n)
		for i := n / 2; i < n; i++ {
			labels[i] = 1
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		g := New(n, edges, nil, labels, 2)
		idx := make([]int, 0, n/2)
		for i := 0; i < n/2; i++ {
			idx = append(idx, i)
		}
		sub := g.Subgraph(idx)
		if sub.M() == 0 {
			return true
		}
		return sub.EdgeHomophily() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
