// Package repro_test hosts the top-level benchmark suite: one testing.B
// benchmark per table and figure of the AdaFGL paper, each regenerating the
// corresponding experiment at smoke scale through the bench harness, plus
// micro-benchmarks of the hot substrate paths. Run with
//
//	go test -bench=. -benchmem
//
// and use cmd/adafgl-bench for full-scale regeneration with printed tables.
package repro_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/checkpoint"
	"repro/internal/federated"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sparse"
	"repro/internal/telemetry"

	"repro/internal/datasets"
)

// benchScale keeps testing.B iterations affordable while exercising the
// complete pipeline of every experiment.
func benchScale() bench.Scale {
	return bench.Scale{
		Factor: 0.08, Clients: 3, Rounds: 5, LocalEpochs: 1,
		Runs: 1, AdaEpochs: 10, Correction: 3, Seed: 1,
	}
}

func runExp(b *testing.B, id string) {
	b.Helper()
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunExperiment(id, s); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1DatasetStats(b *testing.B)        { runExp(b, "table1") }
func BenchmarkTable2Transductive(b *testing.B)        { runExp(b, "table2") }
func BenchmarkTable3Inductive(b *testing.B)           { runExp(b, "table3") }
func BenchmarkTable4TransductiveInject(b *testing.B)  { runExp(b, "table4") }
func BenchmarkTable5InductiveInject(b *testing.B)     { runExp(b, "table5") }
func BenchmarkTable6AblationHomophilous(b *testing.B) { runExp(b, "table6") }
func BenchmarkTable7AblationHeterophilous(b *testing.B) {
	runExp(b, "table7")
}
func BenchmarkTable8ParadigmComparison(b *testing.B) { runExp(b, "table8") }
func BenchmarkFig2EmpiricalAnalysis(b *testing.B)    { runExp(b, "fig2") }
func BenchmarkFig5TopologyHeterogeneity(b *testing.B) {
	runExp(b, "fig5")
}
func BenchmarkFig6Sensitivity(b *testing.B)          { runExp(b, "fig6") }
func BenchmarkFig7ClientHCS(b *testing.B)            { runExp(b, "fig7") }
func BenchmarkFig8ConvergenceLarge(b *testing.B)     { runExp(b, "fig8") }
func BenchmarkFig9ConvergenceSmall(b *testing.B)     { runExp(b, "fig9") }
func BenchmarkFig10Sparsity(b *testing.B)            { runExp(b, "fig10") }
func BenchmarkFig11SparseParticipation(b *testing.B) { runExp(b, "fig11") }

// ---- BenchmarkParallel*: worker-count scaling of the hot substrate paths.
// Each benchmark runs the identical computation under workers=1 (serial
// baseline) and workers=GOMAXPROCS, so the speedup is directly readable from
// the trajectory; outputs are bit-identical by construction.

// workerCounts returns the sweep [1, GOMAXPROCS] (deduplicated on 1-core
// machines).
func workerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// benchGraphCSR builds a smoke-scale normalized adjacency and feature matrix
// comparable to one federated client's propagation workload.
func benchGraphCSR(n, perRow, feats int) (*sparse.CSR, *matrix.Dense) {
	rng := rand.New(rand.NewSource(7))
	coords := make([]sparse.Coord, 0, n*perRow)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			coords = append(coords, sparse.Coord{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	adj := sparse.FromCoords(n, n, coords).WithSelfLoops().Normalized(sparse.NormSym)
	x := matrix.New(n, feats)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return adj, x
}

// BenchmarkParallelSparsePropagation measures K-step normalized-adjacency
// feature smoothing (Eq. 7's hot loop) across worker counts.
func BenchmarkParallelSparsePropagation(b *testing.B) {
	adj, x := benchGraphCSR(20000, 10, 32)
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			orig := parallel.SetWorkers(w)
			defer parallel.SetWorkers(orig)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := x
				for k := 0; k < 3; k++ {
					cur = adj.MulDense(cur)
				}
			}
		})
	}
}

// BenchmarkParallelSpMV measures sparse mat-vec across worker counts.
func BenchmarkParallelSpMV(b *testing.B) {
	adj, _ := benchGraphCSR(50000, 10, 1)
	v := make([]float64, 50000)
	rng := rand.New(rand.NewSource(8))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			orig := parallel.SetWorkers(w)
			defer parallel.SetWorkers(orig)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = adj.MulVec(v)
			}
		})
	}
}

// BenchmarkParallelGEMM measures dense matrix multiplication across worker
// counts at a size typical of a full-graph forward pass.
func BenchmarkParallelGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := matrix.New(1024, 256)
	c := matrix.New(256, 256)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	for _, w := range workerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			orig := parallel.SetWorkers(w)
			defer parallel.SetWorkers(orig)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = matrix.Mul(a, c)
			}
		})
	}
}

// gemmShape is one dense product BenchmarkGEMM times: the logical
// (N x K)·(K x P) product, with AT/BT saying which operand the caller holds
// transposed (so the product runs through matrix.TMul or matrix.MulT).
type gemmShape struct {
	Name    string
	N, K, P int
	AT, BT  bool
}

// trainingGEMMShapes are the dense products the training loops actually run,
// none of them a multiple of the 4x4 register tile in every dimension: Step 2
// at the adafgl-noniid client size (n_i = 280, C = 7 classes, hidden 32), the
// weight gradients of its first layers and of a fed-step1 client (1760 nodes,
// 96 features), and the small products below the blocked cutover: the three
// every C-wide output layer runs and Θ_message's C-wide input layer. The
// square sweep beside them only ever touches full tiles and untransposed
// packing.
func trainingGEMMShapes() []gemmShape {
	return []gemmShape{
		{Name: "step2-PH", N: 280, K: 280, P: 7},             // P·H, Eqs. 9-13 forward
		{Name: "step2-PTdH", N: 280, K: 280, P: 7, AT: true}, // Pᵀ·dH, their backward
		{Name: "wgrad-XTg", N: 256, K: 280, P: 32, AT: true}, // Xᵀ·g, first-layer weight gradient
		{Name: "wgrad-fed", N: 96, K: 1760, P: 32, AT: true}, // the same on a fed-step1 client
		{Name: "gram-HHT", N: 280, K: 7, P: 280, BT: true},   // H·Hᵀ, Eq. 11's Gram matrix
		{Name: "out-fwd", N: 280, K: 32, P: 7},               // h·W₂, below the cutover
		{Name: "out-bwd-gWT", N: 280, K: 7, P: 32, BT: true}, // g·W₂ᵀ, below the cutover
		{Name: "wgrad-out", N: 32, K: 280, P: 7, AT: true},   // hᵀ·g, W₂'s gradient, below the cutover
		{Name: "msg-fwd", N: 280, K: 7, P: 32},               // H̃·W₁ of Θ_message (Eq. 11), below the cutover
	}
}

// operands returns seeded standard-normal operands for the shape twice over:
// a and b in the layout the caller holds them (a is K x N under AT, b is
// P x K under BT) and la, lb as the plain N x K and K x P matrices of the same
// logical product, which is what matrix.MulNaive — the reference — takes.
func (s gemmShape) operands(seed int64) (a, b, la, lb *matrix.Dense) {
	rng := rand.New(rand.NewSource(seed))
	la, lb = matrix.New(s.N, s.K), matrix.New(s.K, s.P)
	matrix.RandomNormal(la, 0, 1, rng)
	matrix.RandomNormal(lb, 0, 1, rng)
	a, b = la, lb
	if s.AT {
		a = matrix.Transpose(la)
	}
	if s.BT {
		b = matrix.Transpose(lb)
	}
	return a, b, la, lb
}

// product runs the shape through the public entry point training code calls
// (Mul, TMul or MulT), whichever engine that dispatches to.
func (s gemmShape) product(a, b *matrix.Dense) *matrix.Dense {
	switch {
	case s.AT:
		return matrix.TMul(a, b)
	case s.BT:
		return matrix.MulT(a, b)
	}
	return matrix.Mul(a, b)
}

// BenchmarkGEMM sweeps the dense GEMM engine across matrix sizes, tile
// configurations and worker counts, with the naive kernel as baseline, so
// the CI smoke-bench artifact tracks the blocked path's speedup. Outputs are
// bit-identical across worker counts and within 1e-12 of naive across tile
// sizes (enforced by the property suite in internal/matrix). The shape=
// rows are the products training runs (trainingGEMMShapes: edge tiles,
// transposed packing, sub-cutover kernels), path=dispatch being the public
// entry point and path=naive MulNaive on the same logical product.
func BenchmarkGEMM(b *testing.B) {
	for i, sh := range trainingGEMMShapes() {
		x, y, lx, ly := sh.operands(int64(i))
		for _, w := range workerCounts() {
			b.Run(fmt.Sprintf("shape=%s/path=naive/workers=%d", sh.Name, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = matrix.MulNaive(lx, ly)
				}
			})
			b.Run(fmt.Sprintf("shape=%s/path=dispatch/workers=%d", sh.Name, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = sh.product(x, y)
				}
			})
		}
	}
	tilings := []matrix.Tiling{matrix.DefaultTiling(), {MC: 32, KC: 128, NC: 64}, {MC: 128, KC: 512, NC: 256}}
	for _, n := range []int{128, 256, 512} {
		x := matrix.New(n, n)
		y := matrix.New(n, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range y.Data {
			y.Data[i] = rng.NormFloat64()
		}
		for _, w := range workerCounts() {
			b.Run(fmt.Sprintf("n=%d/path=naive/workers=%d", n, w), func(b *testing.B) {
				orig := parallel.SetWorkers(w)
				defer parallel.SetWorkers(orig)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = matrix.MulNaive(x, y)
				}
			})
			for i, tile := range tilings {
				spec := "default"
				if i > 0 {
					spec = fmt.Sprintf("%d,%d,%d", tile.MC, tile.KC, tile.NC)
				}
				b.Run(fmt.Sprintf("n=%d/path=blocked/tiles=%s/workers=%d", n, spec, w), func(b *testing.B) {
					orig := parallel.SetWorkers(w)
					defer parallel.SetWorkers(orig)
					origTile := matrix.SetTiling(tile)
					defer matrix.SetTiling(origTile)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						_ = matrix.Mul(x, y)
					}
				})
			}
		}
	}
}

// BenchmarkSpMM sweeps the two SpMM kernels across graph sizes, densities and
// worker counts, so the CI smoke-bench artifact tracks the blocked engine's
// speedup alongside the GEMM trajectory. path=rowstream is CSR.MulDense;
// path=plan reuses one prebuilt sparse.Plan, the propagation-loop pattern.
// The two are bit-identical for every worker count (enforced by the property
// suite in internal/sparse).
func BenchmarkSpMM(b *testing.B) {
	const cols = 64
	for _, n := range []int{5000, 50000} {
		for _, deg := range []int{5, 20} {
			adj, x := benchGraphCSR(n, deg, cols)
			plan := sparse.NewPlan(adj)
			for _, w := range workerCounts() {
				paths := []struct {
					name string
					run  func()
				}{
					{"rowstream", func() { _ = adj.MulDense(x) }},
					{"plan", func() { _ = plan.MulDense(x) }},
				}
				for _, p := range paths {
					b.Run(fmt.Sprintf("n=%d/deg=%d/cols=%d/path=%s/workers=%d", n, deg, cols, p.name, w), func(b *testing.B) {
						orig := parallel.SetWorkers(w)
						defer parallel.SetWorkers(orig)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							p.run()
						}
					})
				}
			}
		}
	}
}

// BenchmarkSpMMPlanReuse contrasts k-step propagation on the row-streamed
// kernel with a plan that is built inside the timed region, at the engine's
// acceptance configuration (50k nodes, average degree 20, 64-column
// operand): steps=8 is the propagation-loop pattern, steps=1 prices a plan
// nobody reuses — the panel reorganisation against a single product.
func BenchmarkSpMMPlanReuse(b *testing.B) {
	adj, x := benchGraphCSR(50000, 20, 64)
	scratch := matrix.New(50000, 64)
	for _, steps := range []int{1, 8} {
		b.Run(fmt.Sprintf("steps=%d/path=rowstream", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cur := x
				for k := 0; k < steps; k++ {
					cur = adj.MulDense(cur)
				}
			}
		})
		b.Run(fmt.Sprintf("steps=%d/path=plan", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := sparse.NewPlan(adj)
				plan.PropagateInto(x.Clone(), scratch, steps)
			}
		})
	}
}

// BenchmarkFedAsyncRound sweeps the federated engine across commit
// thresholds (K=1 committing on every arrival, K=N/2 buffered, K=N the full
// synchronous barrier — plain FedAvg) and worker counts under a 4x-straggler
// speed model, so the smoke-bench artifact tracks the cost of the
// virtual-clock scheduler at every K. Results are bit-identical across worker
// counts for every K (enforced by internal/federated's suite).
func BenchmarkFedAsyncRound(b *testing.B) {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		b.Fatal(err)
	}
	const clients = 8
	speed := &federated.SpeedModel{Slowdown: []float64{4}, Jitter: 0.05, Seed: 1}
	for _, k := range []int{1, clients / 2, clients} {
		for _, w := range workerCounts() {
			b.Run(fmt.Sprintf("K=%d/workers=%d", k, w), func(b *testing.B) {
				orig := parallel.SetWorkers(w)
				defer parallel.SetWorkers(orig)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := datasets.GenerateScaled(spec, 0.3, 5)
					cd := partition.CommunitySplit(g, clients, rand.New(rand.NewSource(5)))
					cfg := models.DefaultConfig()
					cfg.Hidden = 32
					fleet := federated.BuildClients(cd.Subgraphs, models.Registry["GCN"], cfg, 5)
					o := federated.DefaultOptions()
					o.Rounds = 2
					o.LocalEpochs = 3
					o.Async = federated.AsyncOptions{MinUpdates: k, Speed: speed}
					b.StartTimer()
					if _, err := federated.Run(fleet, 6, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardScale sweeps the sharded graph engine across shard counts on
// one streamed graph: each op is a full 2-hop sharded propagation (every
// shard's SpMM plus the halo exchanges between hops). The custom metrics
// carry the fleet story into the smoke-bench artifact: max-shard-bytes is the
// per-process memory a shard-per-process fleet provisions — it should fall
// ~linearly with the shard count — and halo-cols counts the replicated
// boundary columns that bound the exchange traffic. path=shard2/shard4 read
// against the path=whole single-shard baseline as the serial overhead
// sharding adds on one machine (the fleet speedup is measured by
// `adafgl-bench -exp shard`, where shards run concurrently).
func BenchmarkShardScale(b *testing.B) {
	const n, hops = 30000, 2
	spec := datasets.DefaultStream(n, 1)
	for _, shards := range []int{1, 2, 4} {
		p, err := shard.PlanFromStream(spec, shards, 1)
		if err != nil {
			b.Fatal(err)
		}
		sh, err := shard.BuildFromStream(spec, p, sparse.NormSym)
		if err != nil {
			b.Fatal(err)
		}
		halo := 0
		for _, one := range sh.Shards {
			halo += one.Halo()
		}
		// The shard count rides inside the path token, so every row sits
		// under one (n, hops) key beside the path=whole baseline.
		path := fmt.Sprintf("shard%d", shards)
		if shards == 1 {
			path = "whole"
		}
		b.Run(fmt.Sprintf("n=%d/hops=%d/path=%s", n, hops, path), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.Embedding(hops, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sh.MaxShardBytes()), "max-shard-bytes")
			b.ReportMetric(float64(halo), "halo-cols")
		})
	}
}

// BenchmarkObsOverhead tracks the hot-path cost of the telemetry layer in the
// smoke-bench artifact: one op is a full DefaultMaxBatch-node window Predict
// against a live SGC server — a window is a 64-row gather from the logits
// table, nothing graph-sized to hide instrument cost behind — run with the
// instruments disabled (path=notelemetry, the baseline) and fully enabled
// (path=telemetry). The baseline's ns/op over the enabled row's is the
// enabled fraction of baseline throughput; drifting below ~0.97 means the
// instruments grew past the 3% budget `adafgl-bench -exp obs` enforces. The
// engine runs single-worker so pool-scheduling noise cannot drown the
// nanosecond-scale instrument costs.
func BenchmarkObsOverhead(b *testing.B) {
	spec, err := datasets.ByName("Cora")
	if err != nil {
		b.Fatal(err)
	}
	g := datasets.GenerateScaled(spec, 0.5, 7)
	cd := partition.CommunitySplit(g, 5, rand.New(rand.NewSource(7)))
	cfg := models.DefaultConfig()
	clients := federated.BuildClients(cd.Subgraphs, models.Registry["SGC"], cfg, 7)
	o := federated.DefaultOptions()
	o.Rounds = 3
	res, err := federated.Run(clients, 8, o)
	if err != nil {
		b.Fatal(err)
	}
	ck, err := checkpoint.FromResult(res, "SGC", cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(ck, serve.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	span := serve.DefaultMaxBatch
	if span > srv.Nodes() {
		span = srv.Nodes()
	}
	nodes := make([]int, span)
	origWorkers := parallel.SetWorkers(1)
	defer parallel.SetWorkers(origWorkers)
	for _, mode := range []struct {
		path string
		on   bool
	}{{"notelemetry", false}, {"telemetry", true}} {
		b.Run(fmt.Sprintf("arch=SGC/window=%d/path=%s", span, mode.path), func(b *testing.B) {
			telemetry.SetEnabled(mode.on)
			defer telemetry.SetEnabled(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range nodes {
					nodes[j] = (i*span + j) % srv.Nodes()
				}
				if _, err := srv.Predict(nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
