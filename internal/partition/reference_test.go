package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/matrix"
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

// referenceFold is the local-moving rule as Louvain ran it on every visit
// before the near-tie shortcut: sort the candidates, then fold over them in
// ascending order, moving only for a gain above the best so far by 1e-12.
func referenceFold(cu int, cands []int, toComm, commDegree []float64, du, m2 float64) int {
	cands = append([]int(nil), cands...)
	sort.Ints(cands)
	bestC, bestGain := cu, 0.0
	base := toComm[cu] - du*commDegree[cu]/m2
	for _, c := range cands {
		gain := toComm[c] - du*commDegree[c]/m2
		if gain-base > bestGain+1e-12 {
			bestGain = gain - base
			bestC = c
		}
	}
	return bestC
}

// TestBestCommunityProperty holds the one-pass visit rule to the always-sort
// fold on random weighted visits. Weights and degrees are drawn from a few
// small integers, so exact ties are common, and some gains are nudged by less
// than the 1e-12 margin, so near-ties are too, between candidates and
// against staying put.
func TestBestCommunityProperty(t *testing.T) {
	stays, moves := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		toComm, commDegree := make([]float64, n), make([]float64, n)
		cands := rng.Perm(n)[:rng.Intn(n+1)]
		for _, c := range cands {
			toComm[c] = float64(1 + rng.Intn(3))
			if rng.Intn(4) == 0 {
				toComm[c] += float64(rng.Intn(3)-1) * 4e-13
			}
		}
		for c := range commDegree {
			commDegree[c] = float64(rng.Intn(6))
		}
		cu, du, m2 := rng.Intn(n), float64(1+rng.Intn(4)), float64(8+rng.Intn(40))
		if len(cands) > 0 && rng.Intn(4) == 0 {
			// A candidate level with staying, give or take a few 4e-13:
			// its gain straddles the fold's first threshold.
			c := cands[rng.Intn(len(cands))]
			toComm[c] = toComm[cu] + float64(rng.Intn(5)-1)*4e-13
			commDegree[c] = commDegree[cu]
		}
		want := referenceFold(cu, cands, toComm, commDegree, du, m2)
		got := bestCommunity(cu, append([]int(nil), cands...), toComm, commDegree, du, m2)
		if want == cu {
			stays++
		} else {
			moves++
		}
		if got != want {
			t.Logf("seed %d: cu %d cands %v toComm %v commDegree %v du %v m2 %v: got %d, fold %d",
				seed, cu, cands, toComm, commDegree, du, m2, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if stays == 0 || moves == 0 {
		t.Fatalf("degenerate sample: %d stays, %d moves", stays, moves)
	}
}

// TestLouvainMatchesReferenceTies runs Louvain on graphs whose visits tie
// exactly — every node of a ring, of a complete bipartite graph and of
// disjoint equal cliques sees candidates of equal gain — so the visit rule
// falls back to the sorted fold, and holds it to the reference.
func TestLouvainMatchesReferenceTies(t *testing.T) {
	ring := func(n int) *graph.Graph {
		var edges [][2]int
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
		return graph.New(n, edges, nil, make([]int, n), 1)
	}
	bipartite := func(a, b int) *graph.Graph {
		var edges [][2]int
		for i := 0; i < a; i++ {
			for j := 0; j < b; j++ {
				edges = append(edges, [2]int{i, a + j})
			}
		}
		return graph.New(a+b, edges, nil, make([]int, a+b), 1)
	}
	cliques := func(k, size int) *graph.Graph {
		var edges [][2]int
		for c := 0; c < k; c++ {
			for i := 0; i < size; i++ {
				for j := i + 1; j < size; j++ {
					edges = append(edges, [2]int{c*size + i, c*size + j})
				}
			}
		}
		return graph.New(k*size, edges, nil, make([]int, k*size), 1)
	}
	cases := map[string]*graph.Graph{
		"ring 12":         ring(12),
		"ring 101":        ring(101),
		"bipartite 4x4":   bipartite(4, 4),
		"bipartite 3x9":   bipartite(3, 9),
		"4 cliques of 5":  cliques(4, 5),
		"9 cliques of 3":  cliques(9, 3),
		"2 cliques of 12": cliques(2, 12),
	}
	for name, g := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			checkLouvainMatchesReference(t, name, g, seed)
		}
	}
}

// The references below are the split pipelines as they stood before their
// maps became dense arrays, sorted lists and graph.EdgeSet: node- and
// edge-keyed maps in Metis's refinement, the injectors and the subgraph
// remap. They are kept as the statement of what the splits must return.

// referenceSubgraph induces the subgraph on idx through a map remap.
func referenceSubgraph(g *graph.Graph, idx []int) *graph.Graph {
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
	sub := graph.New(len(idx), edges, x, labels, g.Classes)
	for newID, old := range idx {
		labels[newID] = g.Labels[old]
		sub.TrainMask[newID] = g.TrainMask[old]
		sub.ValMask[newID] = g.ValMask[old]
		sub.TestMask[newID] = g.TestMask[old]
	}
	return sub
}

func referenceBuildClients(g *graph.Graph, assign []int, k int) *ClientData {
	groups := groupByPart(assign, k)
	cd := &ClientData{Assignment: assign}
	for p := 0; p < k; p++ {
		cd.Subgraphs = append(cd.Subgraphs, referenceSubgraph(g, groups[p]))
	}
	return cd
}

func referenceCommunitySplit(g *graph.Graph, k int, rng *rand.Rand) *ClientData {
	comm := referenceLouvain(g, rng)
	groups := groupByPart(comm, g.N)
	ids := make([]int, 0, g.N)
	for c, members := range groups {
		if len(members) > 0 {
			ids = append(ids, c)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(groups[ids[i]]) != len(groups[ids[j]]) {
			return len(groups[ids[i]]) > len(groups[ids[j]])
		}
		return ids[i] < ids[j]
	})
	assign := make([]int, g.N)
	sizes := make([]int, k)
	for _, c := range ids {
		smallest := 0
		for p := 1; p < k; p++ {
			if sizes[p] < sizes[smallest] {
				smallest = p
			}
		}
		for _, v := range groups[c] {
			assign[v] = smallest
		}
		sizes[smallest] += len(groups[c])
	}
	return referenceBuildClients(g, assign, k)
}

func referenceStructureNonIIDSplit(g *graph.Graph, k int, opt StructureNonIIDOptions, rng *rand.Rand) *ClientData {
	part := referenceMetis(g, k, rng)
	cd := referenceBuildClients(g, part, k)
	cd.Injected = make([]int, k)
	for i, sub := range cd.Subgraphs {
		if rng.Float64() < opt.HomoProb {
			referenceRandomInject(sub, opt.SamplingRatio, true, rng)
			cd.Injected[i] = +1
		} else {
			if opt.Meta {
				referenceMetaInject(sub, opt.MetaBudget, rng)
			} else {
				referenceRandomInject(sub, opt.SamplingRatio, false, rng)
			}
			cd.Injected[i] = -1
		}
	}
	return cd
}

func referenceMetis(g *graph.Graph, k int, rng *rand.Rand) []int {
	n := g.N
	if k <= 1 || n == 0 {
		return make([]int, n)
	}
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	cap1 := (n + k - 1) / k
	sizes := make([]int, k)
	seeds := spreadSeeds(g, k, rng)
	queues := make([][]int, k)
	for p, s := range seeds {
		if part[s] == -1 {
			part[s] = p
			sizes[p]++
			queues[p] = append(queues[p], s)
		}
	}
	active := true
	for active {
		active = false
		for p := 0; p < k; p++ {
			if sizes[p] >= cap1 || len(queues[p]) == 0 {
				continue
			}
			v := queues[p][0]
			queues[p] = queues[p][1:]
			for _, u := range g.Neighbors(v) {
				if part[u] == -1 && sizes[p] < cap1 {
					part[u] = p
					sizes[p]++
					queues[p] = append(queues[p], u)
					active = true
				}
			}
			if len(queues[p]) > 0 {
				active = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if part[v] == -1 {
			best := 0
			for p := 1; p < k; p++ {
				if sizes[p] < sizes[best] {
					best = p
				}
			}
			part[v] = best
			sizes[best]++
		}
	}
	referenceKLRefine(g, part, sizes, cap1, rng)
	return part
}

func referenceKLRefine(g *graph.Graph, part, sizes []int, cap1 int, rng *rand.Rand) {
	for pass := 0; pass < 3; pass++ {
		moved := 0
		order := rng.Perm(g.N)
		for _, v := range order {
			pv := part[v]
			nbrCount := map[int]int{}
			for _, u := range g.Neighbors(v) {
				nbrCount[part[u]]++
			}
			cands := make([]int, 0, len(nbrCount))
			for p := range nbrCount {
				cands = append(cands, p)
			}
			sort.Ints(cands)
			bestP, bestGain := pv, 0
			for _, p := range cands {
				if p == pv || sizes[p] >= cap1 {
					continue
				}
				gain := nbrCount[p] - nbrCount[pv]
				if gain > bestGain {
					bestGain, bestP = gain, p
				}
			}
			if bestP != pv && sizes[pv] > 1 {
				sizes[pv]--
				sizes[bestP]++
				part[v] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

func referenceRandomInject(g *graph.Graph, ratio float64, homophilous bool, rng *rand.Rand) int {
	target := int(float64(g.M()) * ratio)
	if target <= 0 || g.N < 2 {
		return 0
	}
	var added [][2]int
	batch := map[[2]int]bool{}
	tries := 0
	maxTries := target * 50
	for len(added) < target && tries < maxTries {
		tries++
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if batch[key] || g.HasEdge(u, v) {
			continue
		}
		if same := g.Labels[u] == g.Labels[v]; same != homophilous {
			continue
		}
		batch[key] = true
		added = append(added, key)
	}
	g.AddEdges(added)
	return len(added)
}

func referenceMetaInject(g *graph.Graph, budget float64, rng *rand.Rand) int {
	target := int(float64(g.M()) * budget)
	if target <= 0 || g.N < 2 {
		return 0
	}
	deg := g.Degrees()
	hubs := make(map[int][]int)
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return order[a] < order[b]
	})
	for _, v := range order {
		c := g.Labels[v]
		if len(hubs[c]) < 32 {
			hubs[c] = append(hubs[c], v)
		}
	}
	victims := make([]int, g.N)
	copy(victims, order)
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if g.TrainMask[va] != g.TrainMask[vb] {
			return g.TrainMask[vb]
		}
		if deg[va] != deg[vb] {
			return deg[va] < deg[vb]
		}
		return va < vb
	})

	var adds, dels [][2]int
	seenAdd := map[[2]int]bool{}
	spent := 0
	for _, victim := range victims {
		if spent >= target {
			break
		}
		vc := g.Labels[victim]
		for _, u := range g.Neighbors(victim) {
			if spent >= target {
				break
			}
			if g.Labels[u] == vc {
				a, b := victim, u
				if a > b {
					a, b = b, a
				}
				dels = append(dels, [2]int{a, b})
				spent++
			}
		}
		type cand struct {
			node  int
			score float64
		}
		var cands []cand
		for c, hs := range hubs {
			if c == vc {
				continue
			}
			for _, h := range hs {
				sim := 0.0
				if g.X != nil {
					sim = cosineRows(g.X.Row(victim), g.X.Row(h))
				}
				cands = append(cands, cand{h, float64(deg[h]+1) * (1 - sim)})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].score != cands[b].score {
				return cands[a].score > cands[b].score
			}
			return cands[a].node < cands[b].node
		})
		added := 0
		for _, c := range cands {
			if added >= 2 || spent >= target {
				break
			}
			a, b := victim, c.node
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			k := [2]int{a, b}
			if seenAdd[k] || g.HasEdge(a, b) {
				continue
			}
			seenAdd[k] = true
			adds = append(adds, k)
			added++
			spent++
		}
	}
	referenceRemoveEdges(g, dels)
	g.AddEdges(adds)
	return spent
}

func referenceRemoveEdges(g *graph.Graph, edges [][2]int) {
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

// TestKLRefineMatchesReference holds Metis's refinement to the map-based one
// from random starting partitions under caps from tight to none. (Inside
// Metis the grown parts are mostly full, so few moves are allowed there.)
func TestKLRefineMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(2+rng.Intn(4), 5+rng.Intn(20), seed)
		k := 2 + rng.Intn(6)
		part, sizes := make([]int, g.N), make([]int, k)
		for v := range part {
			part[v] = rng.Intn(k)
			sizes[part[v]]++
		}
		cap1 := (g.N+k-1)/k + rng.Intn(g.N)
		refPart, refSizes := append([]int(nil), part...), append([]int(nil), sizes...)
		gotRNG, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		klRefine(g, part, sizes, cap1, gotRNG)
		referenceKLRefine(g, refPart, refSizes, cap1, refRNG)
		return reflect.DeepEqual(part, refPart) && reflect.DeepEqual(sizes, refSizes) && gotRNG.Int63() == refRNG.Int63()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sameClients reports the first difference between two splits: assignment,
// injection record or any subgraph's nodes, edges, feature bits, labels and
// masks. It returns "" when they are equal.
func sameClients(got, want *ClientData) string {
	switch {
	case !reflect.DeepEqual(got.Assignment, want.Assignment):
		return "assignment"
	case !reflect.DeepEqual(got.Injected, want.Injected):
		return "injection record"
	case len(got.Subgraphs) != len(want.Subgraphs):
		return "client count"
	}
	for i, a := range got.Subgraphs {
		b := want.Subgraphs[i]
		if a.N != b.N || a.Classes != b.Classes || !reflect.DeepEqual(a.Edges, b.Edges) ||
			!reflect.DeepEqual(a.X, b.X) || !reflect.DeepEqual(a.Labels, b.Labels) ||
			!reflect.DeepEqual(a.TrainMask, b.TrainMask) || !reflect.DeepEqual(a.ValMask, b.ValMask) ||
			!reflect.DeepEqual(a.TestMask, b.TestMask) {
			return fmt.Sprintf("client %d's subgraph", i)
		}
	}
	return ""
}

// TestSplitsMatchReference holds the community split and the structure
// Non-iid split, with random and with meta injection, to the map-based
// references on every registered dataset at three scales and three seeds:
// the same subgraphs, assignment, injection record and rng draws.
func TestSplitsMatchReference(t *testing.T) {
	type split func(g *graph.Graph, rng *rand.Rand) *ClientData
	nonIID := func(meta bool, run func(*graph.Graph, int, StructureNonIIDOptions, *rand.Rand) *ClientData) split {
		opt := DefaultNonIID()
		opt.Meta = meta
		return func(g *graph.Graph, rng *rand.Rand) *ClientData { return run(g, 5, opt, rng) }
	}
	splits := []struct {
		name      string
		got, want split
	}{
		{"community",
			func(g *graph.Graph, rng *rand.Rand) *ClientData { return CommunitySplit(g, 5, rng) },
			func(g *graph.Graph, rng *rand.Rand) *ClientData { return referenceCommunitySplit(g, 5, rng) }},
		{"non-iid random", nonIID(false, StructureNonIIDSplit), nonIID(false, referenceStructureNonIIDSplit)},
		{"non-iid meta", nonIID(true, StructureNonIIDSplit), nonIID(true, referenceStructureNonIIDSplit)},
	}
	for _, spec := range datasets.Registry {
		for _, factor := range []float64{0.25, 0.5, 1} {
			for seed := int64(1); seed <= 3; seed++ {
				g := datasets.GenerateScaled(spec, factor, seed)
				for _, s := range splits {
					rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					if diff := sameClients(s.got(g, rng), s.want(g, refRNG)); diff != "" {
						t.Errorf("%s x%g seed %d, %s split: %s differs from the reference", spec.Name, factor, seed, s.name, diff)
					}
					if rng.Int63() != refRNG.Int63() {
						t.Errorf("%s x%g seed %d, %s split: a different number of rng draws", spec.Name, factor, seed, s.name)
					}
				}
			}
		}
	}
}
