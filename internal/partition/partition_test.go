package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/sparse"
)

// plantedGraph returns a graph with c planted communities of size sz, dense
// inside and sparse across; labels equal community id.
func plantedGraph(c, sz int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := c * sz
	labels := make([]int, n)
	var edges [][2]int
	for i := 0; i < n; i++ {
		labels[i] = i / sz
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.02
			if labels[i] == labels[j] {
				p = 0.5
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	x := matrix.New(n, 4)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64()+float64(labels[i]))
		}
	}
	return graph.New(n, edges, x, labels, c)
}

func TestLouvainRecoverPlantedCommunities(t *testing.T) {
	g := plantedGraph(4, 20, 1)
	rng := rand.New(rand.NewSource(2))
	comm := Louvain(g, rng)
	// Nodes in the same planted block should mostly share a community.
	agree, total := 0, 0
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			samePlanted := g.Labels[i] == g.Labels[j]
			sameFound := comm[i] == comm[j]
			total++
			if samePlanted == sameFound {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Fatalf("Louvain pair agreement %.3f < 0.9", frac)
	}
}

func TestLouvainModularityPositive(t *testing.T) {
	g := plantedGraph(3, 15, 3)
	comm := Louvain(g, rand.New(rand.NewSource(4)))
	q := Modularity(g, comm)
	if q < 0.3 {
		t.Fatalf("modularity %.3f too low for planted communities", q)
	}
	// Louvain must beat the trivial all-in-one assignment.
	trivial := make([]int, g.N)
	if q <= Modularity(g, trivial) {
		t.Fatal("Louvain must beat trivial assignment")
	}
}

func TestMetisBalance(t *testing.T) {
	g := plantedGraph(4, 25, 5)
	for _, k := range []int{2, 5, 10} {
		part := Metis(g, k, rand.New(rand.NewSource(6)))
		sizes := PartSizes(part, k)
		capLimit := (g.N + k - 1) / k
		for p, s := range sizes {
			if s == 0 {
				t.Fatalf("k=%d: part %d empty", k, p)
			}
			if s > capLimit+1 {
				t.Fatalf("k=%d: part %d size %d exceeds cap %d", k, p, s, capLimit)
			}
		}
	}
}

func TestMetisCutBeatsRandom(t *testing.T) {
	g := plantedGraph(4, 25, 7)
	rng := rand.New(rand.NewSource(8))
	part := Metis(g, 4, rng)
	metisCut := EdgeCut(g, part)
	randPart := make([]int, g.N)
	for i := range randPart {
		randPart[i] = rng.Intn(4)
	}
	if metisCut >= EdgeCut(g, randPart) {
		t.Fatalf("Metis cut %d not better than random %d", metisCut, EdgeCut(g, randPart))
	}
}

func TestCommunitySplitCoversAllNodes(t *testing.T) {
	g := plantedGraph(5, 20, 9)
	cd := CommunitySplit(g, 4, rand.New(rand.NewSource(10)))
	if len(cd.Subgraphs) != 4 {
		t.Fatalf("clients = %d, want 4", len(cd.Subgraphs))
	}
	total := 0
	for _, sub := range cd.Subgraphs {
		total += sub.N
	}
	if total != g.N {
		t.Fatalf("subgraphs cover %d nodes, want %d", total, g.N)
	}
	for v, p := range cd.Assignment {
		if p < 0 || p >= 4 {
			t.Fatalf("node %d assigned to invalid client %d", v, p)
		}
	}
}

func TestCommunitySplitPreservesHomophily(t *testing.T) {
	// Community split on a homophilous graph keeps clients homophilous
	// (the paper's Fig. 2(b) claim).
	s, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(s, 0.5, 11)
	cd := CommunitySplit(g, 5, rand.New(rand.NewSource(12)))
	for i, sub := range cd.Subgraphs {
		if sub.M() < 5 {
			continue
		}
		if h := sub.EdgeHomophily(); h < 0.6 {
			t.Errorf("client %d homophily %.3f < 0.6 under community split", i, h)
		}
	}
}

func TestStructureNonIIDCreatesTopologyVariance(t *testing.T) {
	s, err := datasets.ByName("Cora")
	if err != nil {
		t.Fatal(err)
	}
	g := datasets.GenerateScaled(s, 0.5, 13)
	cd := StructureNonIIDSplit(g, 6, DefaultNonIID(), rand.New(rand.NewSource(14)))
	if len(cd.Injected) != 6 {
		t.Fatalf("Injected len = %d", len(cd.Injected))
	}
	var homos, heteros int
	var minH, maxH = 1.0, 0.0
	for i, sub := range cd.Subgraphs {
		h := sub.EdgeHomophily()
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
		switch cd.Injected[i] {
		case 1:
			homos++
		case -1:
			heteros++
		default:
			t.Fatalf("client %d has no injection record", i)
		}
	}
	if homos == 0 || heteros == 0 {
		t.Skip("binary selection degenerate for this seed (all one side)")
	}
	// Structure Non-iid must create wider topology spread than community
	// split does on the same graph.
	if maxH-minH < 0.15 {
		t.Fatalf("homophily spread %.3f too narrow for structure Non-iid", maxH-minH)
	}
}

func TestRandomInjectHomophilous(t *testing.T) {
	g := plantedGraph(3, 15, 15)
	before := g.EdgeHomophily()
	mBefore := g.M()
	n := RandomInject(g, 0.5, true, rand.New(rand.NewSource(16)))
	if n == 0 {
		t.Fatal("no edges injected")
	}
	if g.M() != mBefore+n {
		t.Fatalf("edge count %d, want %d", g.M(), mBefore+n)
	}
	if g.EdgeHomophily() <= before {
		t.Fatalf("homophilous injection must raise homophily: %.3f -> %.3f", before, g.EdgeHomophily())
	}
}

func TestRandomInjectHeterophilous(t *testing.T) {
	g := plantedGraph(3, 15, 17)
	before := g.EdgeHomophily()
	n := RandomInject(g, 0.5, false, rand.New(rand.NewSource(18)))
	if n == 0 {
		t.Fatal("no edges injected")
	}
	if g.EdgeHomophily() >= before {
		t.Fatalf("heterophilous injection must lower homophily: %.3f -> %.3f", before, g.EdgeHomophily())
	}
}

func TestMetaInjectLowersHomophilyWithBudget(t *testing.T) {
	g := plantedGraph(3, 15, 19)
	mBefore := g.M()
	before := g.EdgeHomophily()
	n := MetaInject(g, 0.2, rand.New(rand.NewSource(20)))
	if n == 0 {
		t.Fatal("meta-injection flipped nothing")
	}
	if n > int(float64(mBefore)*0.2)+1 {
		t.Fatalf("budget exceeded: %d flips > %d", n, int(float64(mBefore)*0.2))
	}
	if g.EdgeHomophily() >= before {
		t.Fatal("meta-injection must lower homophily")
	}
}

func TestMetaInjectDamagesModelMoreThanRandom(t *testing.T) {
	// The property the paper measures (Tables IV/V): at equal modification
	// counts, the adversarial surrogate degrades downstream model accuracy
	// at least as much as random heterophilous injection. Homophily metrics
	// alone would mislead here (additions move H_edge more than deletions),
	// so the test trains a GCN on both attacked graphs.
	spec, err := datasets.ByName("Physics")
	if err != nil {
		t.Fatal(err)
	}
	cfg := models.DefaultConfig()
	cfg.Hidden = 16
	cfg.Dropout = 0
	gMeta := datasets.GenerateScaled(spec, 0.2, 5)
	gRand := gMeta.Clone()
	flips := MetaInject(gMeta, 0.5, rand.New(rand.NewSource(6)))
	added := RandomInject(gRand, 0.5, false, rand.New(rand.NewSource(6)))
	if flips == 0 || added == 0 {
		t.Fatal("injection produced no modifications")
	}
	mMeta := models.NewGCN(gMeta, cfg, rand.New(rand.NewSource(7)))
	mRand := models.NewGCN(gRand, cfg, rand.New(rand.NewSource(7)))
	oMeta, oRand := cfg.NewOptimizer(), cfg.NewOptimizer()
	for e := 0; e < 80; e++ {
		models.TrainEpoch(mMeta, oMeta, gMeta.Labels, gMeta.TrainMask)
		models.TrainEpoch(mRand, oRand, gRand.Labels, gRand.TrainMask)
	}
	accMeta := models.Accuracy(mMeta, gMeta.Labels, gMeta.TestMask)
	accRand := models.Accuracy(mRand, gRand.Labels, gRand.TestMask)
	t.Logf("GCN accuracy: meta-attacked %.3f, random-attacked %.3f", accMeta, accRand)
	if accMeta > accRand+0.02 {
		t.Fatalf("meta attack (%.3f) weaker than random (%.3f)", accMeta, accRand)
	}
}

func TestSparsifyFeatures(t *testing.T) {
	g := plantedGraph(2, 10, 23)
	rng := rand.New(rand.NewSource(24))
	g.SplitTransductive(0.3, 0.2, rng)
	n := SparsifyFeatures(g, 1.0, rng)
	if n == 0 {
		t.Fatal("nothing sparsified")
	}
	for i := 0; i < g.N; i++ {
		zero := true
		for _, v := range g.X.Row(i) {
			if v != 0 {
				zero = false
			}
		}
		if g.TrainMask[i] && zero {
			t.Fatal("train node features must be preserved")
		}
		if !g.TrainMask[i] && !zero {
			t.Fatal("non-train node features must be zeroed at frac=1")
		}
	}
}

func TestSparsifyLabels(t *testing.T) {
	g := plantedGraph(2, 10, 25)
	rng := rand.New(rand.NewSource(26))
	g.SplitTransductive(0.5, 0.2, rng)
	before := graph.CountMask(g.TrainMask)
	n := SparsifyLabels(g, 0.5, rng)
	after := graph.CountMask(g.TrainMask)
	if after != before-n {
		t.Fatalf("train count %d, want %d", after, before-n)
	}
	if n == 0 {
		t.Fatal("no labels removed at frac=0.5")
	}
}

// Property: Metis partitions always cover every node with a valid part id
// and never exceed the balance cap by more than 1.
func TestQuickMetisValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(2+rng.Intn(3), 8+rng.Intn(8), seed)
		k := 2 + rng.Intn(5)
		part := Metis(g, k, rng)
		if len(part) != g.N {
			return false
		}
		sizes := PartSizes(part, k)
		capLimit := (g.N+k-1)/k + 1
		for _, s := range sizes {
			if s > capLimit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: community split partitions the node set exactly (no loss, no
// duplication), for any client count.
func TestQuickCommunitySplitPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := plantedGraph(3, 12, seed)
		k := 2 + rng.Intn(4)
		cd := CommunitySplit(g, k, rng)
		total := 0
		for _, sub := range cd.Subgraphs {
			total += sub.N
		}
		return total == g.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestModularityBounds(t *testing.T) {
	g := plantedGraph(3, 10, 27)
	comm := Louvain(g, rand.New(rand.NewSource(28)))
	q := Modularity(g, comm)
	if q < -0.5 || q > 1 {
		t.Fatalf("modularity %v outside [-0.5, 1]", q)
	}
	if math.IsNaN(q) {
		t.Fatal("modularity NaN")
	}
}

func BenchmarkLouvain(b *testing.B) {
	s, _ := datasets.ByName("Cora")
	g := datasets.Generate(s, 1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Louvain(g, rng)
	}
}

// setupShape is the graph the repository benchmark's fed-step1 set-up works
// on (Physics ×8: 17.6k nodes, 123k edges), so the smoke sweep sees the
// set-up path — community split, adjacency build, edge canonicalisation — at
// the size it is claimed at.
func setupShape(b *testing.B) *graph.Graph {
	b.Helper()
	s, err := datasets.ByName("Physics")
	if err != nil {
		b.Fatal(err)
	}
	return datasets.GenerateScaled(s, 8, 1)
}

func BenchmarkCommunitySplit(b *testing.B) {
	g := setupShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CommunitySplit(g, 10, rand.New(rand.NewSource(1)))
	}
}

// BenchmarkGenerate times the generation of setupShape's graph.
func BenchmarkGenerate(b *testing.B) {
	s, err := datasets.ByName("Physics")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		datasets.GenerateScaled(s, 8, 1)
	}
}

// BenchmarkSubgraph times the induction of the ten client subgraphs of
// setupShape's community split.
func BenchmarkSubgraph(b *testing.B) {
	g := setupShape(b)
	groups := groupByPart(CommunitySplit(g, 10, rand.New(rand.NewSource(1))).Assignment, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range groups {
			g.Subgraph(idx)
		}
	}
}

func BenchmarkFromEdges(b *testing.B) {
	g := setupShape(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.FromEdges(g.N, g.Edges)
	}
}

// BenchmarkCanonicalize times the non-canonical branch: the edge list in
// generation order, endpoints reversed at random, as datasets.Generate hands
// it to graph.New.
func BenchmarkCanonicalize(b *testing.B) {
	g := setupShape(b)
	rng := rand.New(rand.NewSource(1))
	edges := append([][2]int(nil), g.Edges...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.Intn(2) == 0 {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Canonicalize(edges)
	}
}

func BenchmarkMetis(b *testing.B) {
	s, _ := datasets.ByName("Cora")
	g := datasets.Generate(s, 1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Metis(g, 10, rng)
	}
}

// TestKLPassAllocations holds one Kernighan–Lin refinement pass to a constant
// number of allocations whatever the graph's size: the random visiting order,
// and nothing per node visit.
func TestKLPassAllocations(t *testing.T) {
	for _, sz := range []int{10, 200} {
		g := plantedGraph(4, sz, 31)
		const k = 4
		rng := rand.New(rand.NewSource(32))
		part, sizes := make([]int, g.N), make([]int, k)
		for v := range part {
			part[v] = rng.Intn(k)
			sizes[part[v]]++
		}
		adj := g.Adj()
		count, touched := make([]int, k), make([]int, 0, k)
		allocs := testing.AllocsPerRun(5, func() {
			klPass(adj, part, sizes, g.N, rng.Perm(g.N), count, touched)
		})
		if allocs != 1 {
			t.Errorf("%d nodes: %v allocations per pass, want 1 (the visiting order)", g.N, allocs)
		}
	}
}
