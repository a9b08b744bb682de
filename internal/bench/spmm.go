package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// SpMM is the sparse-kernel micro experiment ("spmm"), mirroring the "gemm"
// experiment for the blocked SpMM engine: it times the row-streamed kernel
// (CSR.MulDense) against a propagation plan on GNN-shaped workloads, reports
// speedups, and cross-checks both to 1e-12 on every cell (the engine's
// actual contract is bit-identity, enforced by the property suite). The
// plan×1 column builds a plan for a single product — the price of a plan
// nobody reuses — timed paired against the row-streamed kernel
// (pairedSpeedup). The headline row is the acceptance configuration of the
// engine: a 50k-node, avg-degree-20 graph against a 64-column operand at the
// default worker count. The plan/step column amortises one blocked layout,
// its build included, over 8 propagation steps — the Eq. (7)/LP reuse
// pattern a Plan exists for.
func SpMM(s Scale) ([]string, error) {
	reps := s.Runs
	if reps < 1 {
		reps = 1
	}
	const steps = 8
	lines := []string{
		"SpMM: row-streamed kernel vs propagation plan (per-product time)",
		fmt.Sprintf("panel %d cols, reps %d, plan/step amortised over %d propagation steps",
			sparse.CurrentBlocking().Panel, reps, steps),
		fmt.Sprintf("%22s %12s %12s %12s %9s %9s", "graph x cols", "rowstream", "plan×1", "plan/step", "×1-spd", "step-spd"),
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

		var rows, once *matrix.Dense
		onceSpeedup, tRows, tOnce := pairedSpeedup(reps,
			func() { rows = adj.MulDense(x) },
			func() { once = sparse.NewPlan(adj).MulDense(x) })
		if !matrix.Equal(rows, once, 1e-12) {
			return nil, fmt.Errorf("bench: spmm paths diverge at n=%d deg=%d cols=%d", c.n, c.deg, c.cols)
		}

		// Plan reuse: one layout, k products. Verify the propagated result
		// against k reference products before timing.
		want := x
		for k := 0; k < steps; k++ {
			want = adj.MulDense(want)
		}
		got := sparse.NewPlan(adj).PropagateInto(x.Clone(), matrix.New(c.n, c.cols), steps)
		if !matrix.Equal(got, want, 1e-12) {
			return nil, fmt.Errorf("bench: spmm plan propagation diverges at n=%d deg=%d cols=%d", c.n, c.deg, c.cols)
		}
		scratch := matrix.New(c.n, c.cols)
		xbuf := matrix.New(c.n, c.cols)
		tPlan := best(reps, func() {
			copy(xbuf.Data, x.Data)
			// plan build is part of the amortised cost
			sparse.NewPlan(adj).PropagateInto(xbuf, scratch, steps)
		}) / steps

		lines = append(lines, fmt.Sprintf("%22s %12v %12v %12v %8.2fx %8.2fx",
			fmt.Sprintf("%dn/d%d x %d", c.n, c.deg, c.cols),
			tRows.Round(time.Microsecond), tOnce.Round(time.Microsecond), tPlan.Round(time.Microsecond),
			onceSpeedup, float64(tRows)/float64(tPlan)))
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
