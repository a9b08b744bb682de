package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// SpMM is the sparse-kernel micro experiment ("spmm"), mirroring the "gemm"
// experiment for the blocked SpMM engine: it times the row-streamed
// reference kernel against the blocked engine and against a reusable
// propagation plan on GNN-shaped workloads, reports speedups, and
// cross-checks every path to 1e-12 on every cell (the engine's actual
// contract is bit-identity, enforced by the property suite). The one-shot
// blocked column — the dispatch decision blockedWorthwhile makes — is timed
// paired against the row-streamed kernel (pairedSpeedup). The headline
// row is the acceptance configuration of the engine: a 50k-node,
// avg-degree-20 graph against a 64-column operand at the default worker
// count; the 100k-node row after it holds the dispatch floor at twice the
// panel count. The plan row amortises one blocked layout over 8 propagation
// steps — the Eq. (7)/LP reuse pattern — so its per-step time shows the
// additional win of skipping the per-product reorganisation.
func SpMM(s Scale) ([]string, error) {
	reps := s.Runs
	if reps < 1 {
		reps = 1
	}
	const steps = 8
	b := sparse.CurrentBlocking()
	lines := []string{
		"SpMM: row-streamed vs blocked sparse kernels (per-product time)",
		fmt.Sprintf("panel %d cols, cutover %d madds, reps %d, plan amortised over %d propagation steps",
			b.Panel, sparse.BlockedSpMMCutover, reps, steps),
		fmt.Sprintf("%22s %12s %12s %12s %9s %9s", "graph x cols", "rowstream", "blocked", "plan/step", "blk-spd", "plan-spd"),
	}
	cases := []struct {
		n, deg, cols int
	}{
		{10000, 20, 64},
		{50000, 5, 64},
		{50000, 20, 16},
		{50000, 20, 64},
		{100000, 20, 64},
	}
	for _, c := range cases {
		adj := benchAdjacency(c.n, c.deg, s.Seed)
		x := matrix.New(c.n, c.cols)
		rng := rand.New(rand.NewSource(s.Seed + int64(c.cols)))
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}

		var naive, blocked *matrix.Dense
		blkSpeedup, tNaive, tBlocked := pairedSpeedup(reps,
			func() { naive = adj.MulDenseNaive(x) },
			func() { blocked = adj.MulDense(x) })
		if !matrix.Equal(naive, blocked, 1e-12) {
			return nil, fmt.Errorf("bench: spmm paths diverge at n=%d deg=%d cols=%d", c.n, c.deg, c.cols)
		}

		// Plan reuse: one layout, k products. Verify the propagated result
		// against k reference products before timing.
		plan := sparse.NewPlan(adj)
		want := x
		for k := 0; k < steps; k++ {
			want = adj.MulDenseNaive(want)
		}
		got := plan.PropagateInto(x.Clone(), matrix.New(c.n, c.cols), steps)
		if !matrix.Equal(got, want, 1e-12) {
			return nil, fmt.Errorf("bench: spmm plan propagation diverges at n=%d deg=%d cols=%d", c.n, c.deg, c.cols)
		}
		scratch := matrix.New(c.n, c.cols)
		xbuf := matrix.New(c.n, c.cols)
		tPlan := best(reps, func() {
			copy(xbuf.Data, x.Data)
			plan = sparse.NewPlan(adj) // plan build is part of the amortised cost
			plan.PropagateInto(xbuf, scratch, steps)
		}) / steps

		lines = append(lines, fmt.Sprintf("%22s %12v %12v %12v %8.2fx %8.2fx",
			fmt.Sprintf("%dn/d%d x %d", c.n, c.deg, c.cols),
			tNaive.Round(time.Microsecond), tBlocked.Round(time.Microsecond), tPlan.Round(time.Microsecond),
			blkSpeedup, float64(tNaive)/float64(tPlan)))
	}
	return lines, nil
}

// benchAdjacency builds the normalised adjacency of a random graph with n
// nodes and roughly deg entries per row (uniformly random endpoints — the
// least cache-friendly topology, so the reported speedups are the engine's
// floor rather than a locality best case).
func benchAdjacency(n, deg int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed + int64(n*deg)))
	coords := make([]sparse.Coord, 0, n*deg)
	for i := 0; i < n; i++ {
		for k := 0; k < deg; k++ {
			coords = append(coords, sparse.Coord{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	return sparse.FromCoords(n, n, coords).WithSelfLoops().Normalized(sparse.NormSym)
}
