package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// referenceLouvain is Louvain as it stood before it moved onto flat arrays:
// one map per node for the adjacency, one map and one sort per node visit,
// one map per super-node when coarsening. It is kept as the statement of what
// Louvain must return, assignment for assignment.
func referenceLouvain(g *graph.Graph, rng *rand.Rand) []int {
	n := g.N
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = make(map[int]float64)
	}
	for _, e := range g.Edges {
		if e[0] == e[1] {
			continue
		}
		adj[e[0]][e[1]]++
		adj[e[1]][e[0]]++
	}
	membership := make([]int, n)
	for i := range membership {
		membership[i] = i
	}

	current := adj
	for level := 0; level < 10; level++ {
		comm, moved := referenceLouvainOnePass(current, rng)
		if !moved {
			break
		}
		dense := make(map[int]int)
		for _, c := range comm {
			if _, ok := dense[c]; !ok {
				dense[c] = len(dense)
			}
		}
		for i := range comm {
			comm[i] = dense[comm[i]]
		}
		for i := range membership {
			membership[i] = comm[membership[i]]
		}
		if len(dense) == len(current) {
			break
		}
		next := make([]map[int]float64, len(dense))
		for i := range next {
			next[i] = make(map[int]float64)
		}
		for u, nbrs := range current {
			cu := comm[u]
			vs := make([]int, 0, len(nbrs))
			for v := range nbrs {
				vs = append(vs, v)
			}
			sort.Ints(vs)
			for _, v := range vs {
				next[cu][comm[v]] += nbrs[v]
			}
		}
		current = next
	}
	return membership
}

func referenceLouvainOnePass(adj []map[int]float64, rng *rand.Rand) ([]int, bool) {
	n := len(adj)
	comm := make([]int, n)
	degree := make([]float64, n)
	var m2 float64
	for i := range adj {
		comm[i] = i
		for _, w := range adj[i] {
			degree[i] += w
		}
		m2 += degree[i]
	}
	if m2 == 0 {
		return comm, false
	}
	commDegree := make([]float64, n)
	copy(commDegree, degree)

	order := rng.Perm(n)
	movedAny := false
	for pass := 0; pass < 8; pass++ {
		movedPass := false
		for _, u := range order {
			cu := comm[u]
			toComm := make(map[int]float64)
			for v, w := range adj[u] {
				if v == u {
					continue
				}
				toComm[comm[v]] += w
			}
			commDegree[cu] -= degree[u]
			cands := make([]int, 0, len(toComm))
			for c := range toComm {
				cands = append(cands, c)
			}
			sort.Ints(cands)
			bestC, bestGain := cu, 0.0
			base := toComm[cu] - degree[u]*commDegree[cu]/m2
			for _, c := range cands {
				gain := toComm[c] - degree[u]*commDegree[c]/m2
				if gain-base > bestGain+1e-12 {
					bestGain = gain - base
					bestC = c
				}
			}
			commDegree[bestC] += degree[u]
			if bestC != cu {
				comm[u] = bestC
				movedPass = true
				movedAny = true
			}
		}
		if !movedPass {
			break
		}
	}
	return comm, movedAny
}

// checkLouvainMatchesReference runs both implementations from the same seed
// and requires the same assignment and the same number of rng draws.
func checkLouvainMatchesReference(t *testing.T, name string, g *graph.Graph, seed int64) {
	t.Helper()
	rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := Louvain(g, rng), referenceLouvain(g, refRNG)
	if !samePartition(got, want) {
		t.Errorf("%s seed %d: Louvain differs from the reference", name, seed)
	}
	if rng.Int63() != refRNG.Int63() {
		t.Errorf("%s seed %d: Louvain drew a different number of values from the rng", name, seed)
	}
}

// TestLouvainMatchesReference holds the flat-array Louvain to the map-based
// one on the generated datasets at several sizes and on the shared fixture.
func TestLouvainMatchesReference(t *testing.T) {
	for _, name := range []string{"Cora", "Physics", "Chameleon"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{0.5, 1, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				g := datasets.GenerateScaled(spec, factor, seed)
				checkLouvainMatchesReference(t, fmt.Sprintf("%s x%g", name, factor), g, 10+seed)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		checkLouvainMatchesReference(t, "fixture", partitionFixture(seed), seed)
	}
}

// TestLouvainMatchesReferenceDegenerate covers the edge lists graph.New never
// produces but a caller can assign: parallel edges, self-loops, unordered
// endpoints and rows, plus isolated nodes, no edges and a single node.
func TestLouvainMatchesReferenceDegenerate(t *testing.T) {
	raw := func(n int, edges [][2]int) *graph.Graph {
		g := graph.New(n, nil, nil, make([]int, n), 1)
		g.Edges = edges
		return g
	}
	cases := map[string]*graph.Graph{
		"single node":    raw(1, nil),
		"self-loop only": raw(1, [][2]int{{0, 0}}),
		"zero edges":     raw(6, nil),
		"multi-edges":    raw(6, [][2]int{{0, 1}, {0, 1}, {1, 0}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {3, 5}, {2, 3}}),
		"self-loops":     raw(5, [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 4}}),
		"isolated":       raw(9, [][2]int{{0, 1}, {1, 2}, {0, 2}, {6, 5}, {7, 5}, {7, 6}}),
		"unordered":      raw(8, [][2]int{{7, 6}, {5, 7}, {6, 5}, {3, 0}, {2, 0}, {1, 0}, {2, 1}, {4, 3}, {3, 1}, {5, 4}}),
	}
	rng := rand.New(rand.NewSource(77))
	var multi [][2]int
	for i := 0; i < 600; i++ {
		multi = append(multi, [2]int{rng.Intn(40), rng.Intn(40)})
	}
	cases["random multigraph"] = raw(48, multi)
	for name, g := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			checkLouvainMatchesReference(t, name, g, seed)
		}
	}
}

// TestModularityOrderIndependent holds Modularity to one value per input:
// summed while ranging over maps, its last bit changed from call to call.
func TestModularityOrderIndependent(t *testing.T) {
	g := partitionFixture(5)
	comm := Louvain(g, rand.New(rand.NewSource(6)))
	want := Modularity(g, comm)
	for run := 0; run < 20; run++ {
		if got := Modularity(g, comm); got != want {
			t.Fatalf("run %d: Modularity %v, first run %v", run, got, want)
		}
	}
}
