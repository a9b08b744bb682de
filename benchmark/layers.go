package main

import (
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// repeat calls fn at least atLeast times and until budget has passed (at
// most 200 times), and returns how long each call took, in seconds.
func repeat(atLeast int, budget time.Duration, fn func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < atLeast || (time.Since(start) < budget && len(out) < 200) {
		t := time.Now()
		fn()
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

// kernelShapes names the graph and model the kernel-level layer metrics are
// taken at: a workload's own shapes, not a synthetic sweep.
type kernelShapes struct {
	g     *graph.Graph // adjacency and features the kernels run over
	model models.Model // forward pass and parameter transport
	epoch *graph.Graph // non-nil: also time a training epoch of model on it
	dense bool         // also time the Step-2 dense product n×n · n×C
}

// kernelLayersAt times the sparse, matrix, models and nn layers through
// their public functions at the given shapes.
func kernelLayersAt(out *outcome, k kernelShapes, c config) {
	rng := rand.New(rand.NewSource(subSeed(c.seed, "kernels")))
	hidden := modelConfig().Hidden
	budget := c.sizes.kernelBudget
	g := k.g

	plan := g.NormAdjPlan(sparse.NormSym)
	adj := plan.Matrix()
	h := matrix.New(g.N, hidden)
	matrix.RandomNormal(h, 0, 1, rng)
	spmm := repeat(5, budget, func() { plan.MulDense(h) })
	out.putMedian("sparse.spmm_ms", 1e3, spmm)
	out.putMedian("sparse.spmm_oneshot_ms", 1e3, repeat(5, budget, func() { adj.MulDense(h) }))
	out.putMedian("sparse.plan_build_ms", 1e3, repeat(3, budget, func() { sparse.NewPlan(adj) }))
	nnz := float64(adj.NNZ())
	out.layer.put("sparse.spmm_nnz", nnz, 0)
	out.layer.put("sparse.spmm_gflops", 2*nnz*float64(hidden)/median(spmm)/1e9, len(spmm))
	// Computed from sizes, not measured: every stored entry's value and
	// column index, the row pointers, one dense row read per entry (no
	// cache reuse assumed) and the result written once.
	moved := nnz*16 + float64(adj.NRows+1)*8 + nnz*float64(hidden)*8 + float64(adj.NRows*hidden)*8
	out.layer.put("sparse.spmm_mb_moved", moved/1e6, 0)

	wgt := matrix.New(g.X.Cols, hidden)
	matrix.RandomNormal(wgt, 0, 1, rng)
	gemm := repeat(5, budget, func() { matrix.Mul(g.X, wgt) })
	out.putMedian("matrix.gemm_ms", 1e3, gemm)
	out.layer.put("matrix.gemm_gflops", 2*float64(g.N*g.X.Cols*hidden)/median(gemm)/1e9, len(gemm))
	if k.dense {
		p := matrix.New(g.N, g.N)
		matrix.RandomNormal(p, 0, 1, rng)
		y := matrix.New(g.N, g.Classes)
		matrix.RandomNormal(y, 0, 1, rng)
		out.putMedian("matrix.gemm_dense_ms", 1e3, repeat(5, budget, func() { matrix.Mul(p, y) }))
	}

	out.putMedian("models.forward_ms", 1e3, repeat(5, budget, func() { k.model.Logits(false) }))
	out.putMedian("nn.flatten_us", 1e6, repeat(20, budget, func() { nn.Flatten(k.model) }))
	if k.epoch != nil {
		opt := modelConfig().NewOptimizer()
		out.putMedian("models.train_epoch_ms", 1e3, repeat(5, budget, func() {
			models.TrainEpoch(k.model, opt, k.epoch.Labels, k.epoch.TrainMask)
		}))
	}
}
