package models

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// testGraph builds a small two-community graph with informative features.
// If homophilous, communities are densely intra-connected; otherwise the
// wiring is mostly cross-class.
func testGraph(n int, homophilous bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := labels[i] == labels[j]
			p := 0.05
			if same == homophilous {
				p = 0.3
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	x := matrix.New(n, 6)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			x.Set(i, j, rng.NormFloat64()*0.8+float64(labels[i])*1.5)
		}
	}
	g := graph.New(n, edges, x, labels, 2)
	g.SplitTransductive(0.4, 0.2, rng)
	return g
}

func gradCheckModel(t *testing.T, name string, build func(g *graph.Graph, rng *rand.Rand) Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := testGraph(12, true, 7)
	m := build(g, rng)

	labels := g.Labels
	mask := g.TrainMask
	loss := func() float64 {
		l, _ := nn.SoftmaxCrossEntropy(m.Logits(false), labels, mask)
		return l
	}
	nn.ZeroGrads(m)
	logits := m.Logits(false)
	_, grad := nn.SoftmaxCrossEntropy(logits, labels, mask)
	m.Backward(grad)

	for _, p := range m.Params() {
		// Spot-check a handful of coordinates per parameter to keep runtime low.
		step := len(p.Value.Data)/5 + 1
		for i := 0; i < len(p.Value.Data); i += step {
			const h = 1e-5
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp := loss()
			p.Value.Data[i] = orig - h
			lm := loss()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > 1e-4 {
				t.Fatalf("%s: %s grad[%d] analytic %v vs numeric %v", name, p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func noDropout() Config {
	cfg := DefaultConfig()
	cfg.Dropout = 0
	cfg.Hidden = 8
	cfg.Hops = 2
	return cfg
}

func TestGradCheckGCN(t *testing.T) {
	gradCheckModel(t, "GCN", func(g *graph.Graph, r *rand.Rand) Model { return NewGCN(g, noDropout(), r) })
}

func TestGradCheckSGC(t *testing.T) {
	gradCheckModel(t, "SGC", func(g *graph.Graph, r *rand.Rand) Model { return NewSGC(g, noDropout(), r) })
}

func TestGradCheckGCNII(t *testing.T) {
	gradCheckModel(t, "GCNII", func(g *graph.Graph, r *rand.Rand) Model { return NewGCNII(g, noDropout(), r) })
}

func TestGradCheckGAMLP(t *testing.T) {
	gradCheckModel(t, "GAMLP", func(g *graph.Graph, r *rand.Rand) Model { return NewGAMLP(g, noDropout(), r) })
}

func TestGradCheckGPRGNN(t *testing.T) {
	gradCheckModel(t, "GPRGNN", func(g *graph.Graph, r *rand.Rand) Model { return NewGPRGNN(g, noDropout(), r) })
}

func TestGradCheckGGCN(t *testing.T) {
	gradCheckModel(t, "GGCN", func(g *graph.Graph, r *rand.Rand) Model { return NewGGCN(g, noDropout(), r) })
}

func TestGradCheckGloGNN(t *testing.T) {
	gradCheckModel(t, "GloGNN", func(g *graph.Graph, r *rand.Rand) Model { return NewGloGNN(g, noDropout(), r) })
}

func TestGradCheckMLP(t *testing.T) {
	gradCheckModel(t, "MLP", func(g *graph.Graph, r *rand.Rand) Model { return NewMLPModel(g, noDropout(), r) })
}

// trainToConvergence trains m for a fixed number of epochs.
func trainToConvergence(m Model, g *graph.Graph, cfg Config, epochs int) {
	opt := cfg.NewOptimizer()
	for e := 0; e < epochs; e++ {
		TrainEpoch(m, opt, g.Labels, g.TrainMask)
	}
}

func TestAllModelsLearnHomophilousGraph(t *testing.T) {
	g := testGraph(60, true, 11)
	for name, build := range Registry {
		rng := rand.New(rand.NewSource(3))
		cfg := noDropout()
		m := build(g, cfg, rng)
		trainToConvergence(m, g, cfg, 120)
		if acc := Accuracy(m, g.Labels, g.TestMask); acc < 0.7 {
			t.Errorf("%s: homophilous test accuracy %v < 0.7", name, acc)
		}
	}
}

func TestHeterophilousModelsBeatGCNOnHeterophily(t *testing.T) {
	g := testGraph(80, false, 13)
	cfg := noDropout()
	run := func(name string) float64 {
		rng := rand.New(rand.NewSource(5))
		b, err := BuilderFor(name)
		if err != nil {
			t.Fatal(err)
		}
		m := b(g, cfg, rng)
		trainToConvergence(m, g, cfg, 150)
		return Accuracy(m, g.Labels, g.TestMask)
	}
	gcn := run("GCN")
	ggcn := run("GGCN")
	glognn := run("GloGNN")
	best := math.Max(ggcn, glognn)
	if best < gcn-0.05 {
		t.Errorf("heterophilous models (GGCN %.3f, GloGNN %.3f) should not trail GCN (%.3f) on heterophilous data", ggcn, glognn, gcn)
	}
}

func TestBuilderForUnknown(t *testing.T) {
	if _, err := BuilderFor("nope"); err == nil {
		t.Fatal("unknown architecture must error")
	}
}

func TestAccuracyFromLogits(t *testing.T) {
	logits, _ := matrix.FromRows([][]float64{{2, 1}, {0, 3}, {5, 0}})
	labels := []int{0, 1, 1}
	if acc := AccuracyFromLogits(logits, labels, nil); math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
	if acc := AccuracyFromLogits(logits, labels, []bool{true, true, false}); acc != 1 {
		t.Fatalf("masked accuracy = %v", acc)
	}
	if acc := AccuracyFromLogits(logits, labels, []bool{false, false, false}); acc != 0 {
		t.Fatal("empty mask accuracy must be 0")
	}
}

func TestPropagateK(t *testing.T) {
	g := testGraph(10, true, 17)
	plan := g.NormAdjPlan(sparse.NormSym)
	adj := plan.Matrix()
	hops := PropagateK(plan, g.X, 3)
	if len(hops) != 4 {
		t.Fatalf("PropagateK returned %d matrices, want 4", len(hops))
	}
	if hops[0] != g.X {
		t.Fatal("hop 0 must be the input")
	}
	want := adj.MulDense(adj.MulDense(g.X))
	if !matrix.Equal(hops[2], want, 1e-10) {
		t.Fatal("hop 2 must equal Ã²X")
	}
}

func TestFederatedParameterAlignment(t *testing.T) {
	// Two clients building the same architecture must have identical
	// parameter layouts, the precondition for FedAvg.
	g1 := testGraph(20, true, 19)
	g2 := testGraph(25, false, 23)
	for name, build := range Registry {
		cfg := noDropout()
		m1 := build(g1, cfg, rand.New(rand.NewSource(1)))
		m2 := build(g2, cfg, rand.New(rand.NewSource(2)))
		v1, v2 := nn.Flatten(m1), nn.Flatten(m2)
		if len(v1) != len(v2) {
			t.Errorf("%s: parameter count differs across clients: %d vs %d", name, len(v1), len(v2))
			continue
		}
		if err := nn.Unflatten(m2, v1); err != nil {
			t.Errorf("%s: cross-client unflatten failed: %v", name, err)
		}
	}
}

func TestGCNSmoothsTowardNeighbors(t *testing.T) {
	// Structural sanity: on a homophilous graph GCN test accuracy should
	// comfortably beat the topology-free MLP given weak features.
	rng := rand.New(rand.NewSource(29))
	n := 80
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := 0.01
			if labels[i] == labels[j] {
				p = 0.25
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	x := matrix.New(n, 4)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			// Very weak signal: heavy noise.
			x.Set(i, j, rng.NormFloat64()*3+float64(labels[i]))
		}
	}
	g := graph.New(n, edges, x, labels, 2)
	g.SplitTransductive(0.2, 0.2, rng)
	cfg := noDropout()
	gcn := NewGCN(g, cfg, rand.New(rand.NewSource(1)))
	mlp := NewMLPModel(g, cfg, rand.New(rand.NewSource(1)))
	trainToConvergence(gcn, g, cfg, 150)
	trainToConvergence(mlp, g, cfg, 150)
	ga := Accuracy(gcn, g.Labels, g.TestMask)
	ma := Accuracy(mlp, g.Labels, g.TestMask)
	if ga < ma-0.05 {
		t.Errorf("GCN (%.3f) should not trail MLP (%.3f) on homophilous graph with weak features", ga, ma)
	}
}

// TestGCNFollowsReplacedFeatures is the stale-cache guard at the model level:
// GCN reads its first hop Ã·X from the graph's cache, so after g.X is
// replaced the next Logits must equal, bit for bit, those of a model built
// from scratch on the new features with the same parameters.
func TestGCNFollowsReplacedFeatures(t *testing.T) {
	g := testGraph(40, true, 37)
	cfg := noDropout()
	m := NewGCN(g, cfg, rand.New(rand.NewSource(1)))
	before := m.Logits(false)

	g.X = matrix.Scale(-0.5, g.X)
	fresh := graph.New(g.N, g.Edges, g.X.Clone(), g.Labels, g.Classes)
	ref := NewGCN(fresh, cfg, rand.New(rand.NewSource(2)))
	if err := nn.Unflatten(ref, nn.Flatten(m)); err != nil {
		t.Fatal(err)
	}
	after := m.Logits(false)
	if !matrix.Equal(after, ref.Logits(false), 0) {
		t.Fatal("logits after replacing X differ from a freshly built model's")
	}
	if matrix.Equal(after, before, 0) {
		t.Fatal("logits did not move with the features")
	}
}

// TestTwoGCNsFillColdCacheConcurrently runs two models bound to one graph
// through their first forward passes at once (under -race in CI): both must
// produce the logits of an unshared twin, whichever of them filled the
// graph's Ã·X cache.
func TestTwoGCNsFillColdCacheConcurrently(t *testing.T) {
	for round := 0; round < 8; round++ {
		g := testGraph(60, true, 41)
		cfg := noDropout()
		ms := []*GCN{NewGCN(g, cfg, rand.New(rand.NewSource(1))), NewGCN(g, cfg, rand.New(rand.NewSource(2)))}
		got := make([]*matrix.Dense, len(ms))
		var wg sync.WaitGroup
		for i, m := range ms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = m.Logits(false)
			}()
		}
		wg.Wait()
		for i, m := range ms {
			alone := graph.New(g.N, g.Edges, g.X.Clone(), g.Labels, g.Classes)
			twin := NewGCN(alone, cfg, rand.New(rand.NewSource(3)))
			if err := nn.Unflatten(twin, nn.Flatten(m)); err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got[i], twin.Logits(false), 0) {
				t.Fatalf("model %d: concurrent first forward differs from an unshared twin's", i)
			}
		}
	}
}

// BenchmarkGCNTrainEpoch times one full-batch GCN step at the client shape of
// the benchmark's adafgl-noniid workload: n_i = 280, F = 64, C = 7, hidden 32.
func BenchmarkGCNTrainEpoch(b *testing.B) {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.2, 1)
	cfg := DefaultConfig()
	cfg.Hidden = 32
	m := NewGCN(g, cfg, rand.New(rand.NewSource(1)))
	opt := cfg.NewOptimizer()
	TrainEpoch(m, opt, g.Labels, g.TrainMask)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainEpoch(m, opt, g.Labels, g.TrainMask)
	}
}
