package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/matrix"
)

// GEMMShape is one dense product the GEMM sweeps time: the logical
// (N x K)·(K x P) product, with AT/BT saying which operand the caller holds
// transposed (so the product runs through matrix.TMul or matrix.MulT).
type GEMMShape struct {
	Name    string
	N, K, P int
	AT, BT  bool
}

// TrainingGEMMShapes are the dense products the training loops actually run,
// none of them a multiple of the 4x4 register tile in every dimension: Step 2
// at the adafgl-noniid client size (n_i = 280, C = 7 classes, hidden 32), the
// weight gradients of its first layers and of a fed-step1 client (1760 nodes,
// 96 features), and the small products below the blocked cutover: the three
// every C-wide output layer runs and Θ_message's C-wide input layer. The
// square sweep beside them only ever touches full tiles and untransposed
// packing.
func TrainingGEMMShapes() []GEMMShape {
	return []GEMMShape{
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

// Operands returns seeded standard-normal operands for the shape twice over:
// a and b in the layout the caller holds them (a is K x N under AT, b is
// P x K under BT) and la, lb as the plain N x K and K x P matrices of the same
// logical product, which is what matrix.MulNaive — the reference — takes.
func (s GEMMShape) Operands(seed int64) (a, b, la, lb *matrix.Dense) {
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

// Product runs the shape through the public entry point training code calls
// (Mul, TMul or MulT), whichever engine that dispatches to.
func (s GEMMShape) Product(a, b *matrix.Dense) *matrix.Dense {
	switch {
	case s.AT:
		return matrix.TMul(a, b)
	case s.BT:
		return matrix.MulT(a, b)
	}
	return matrix.Mul(a, b)
}

// String renders the product as the caller writes it, e.g. "(280x280)ᵀ·280x7".
func (s GEMMShape) String() string {
	a, b := fmt.Sprintf("%dx%d", s.N, s.K), fmt.Sprintf("%dx%d", s.K, s.P)
	if s.AT {
		a = fmt.Sprintf("(%dx%d)ᵀ", s.K, s.N)
	}
	if s.BT {
		b = fmt.Sprintf("(%dx%d)ᵀ", s.P, s.K)
	}
	return a + "·" + b
}

// GEMM is the dense-kernel micro experiment ("gemm"): it times the naive
// kernel against the dispatched engine across square sizes and the named
// training shapes, reports the speedup, and cross-checks the two paths to
// 1e-12 on every cell — a quick field check of the engine on whatever
// machine the harness runs on, complementing the BenchmarkGEMM sweep in
// bench_test.go. The two sides are timed paired (pairedSpeedup); Scale.Runs
// scales the number of passes.
func GEMM(s Scale) ([]string, error) {
	reps := max(s.Runs, 1)
	t := matrix.CurrentTiling()
	lines := []string{
		"GEMM: naive vs blocked dense kernels",
		fmt.Sprintf("tiles MC=%d KC=%d NC=%d, cutover %d madds, %d paired calls per side (mean times, lower-quartile speedup)",
			t.MC, t.KC, t.NC, matrix.BlockedCutover, pairedCalls*reps),
		fmt.Sprintf("%-14s %-20s %12s %12s %9s", "shape", "product", "naive", "dispatched", "speedup"),
	}
	var shapes []GEMMShape
	for _, n := range []int{128, 256, 512} {
		shapes = append(shapes, GEMMShape{Name: fmt.Sprintf("square-%d", n), N: n, K: n, P: n})
	}
	shapes = append(shapes, TrainingGEMMShapes()...)
	for i, sh := range shapes {
		a, b, la, lb := sh.Operands(s.Seed + int64(i))
		var naive, got *matrix.Dense
		speedup, tNaive, tGot := pairedSpeedup(reps,
			func() { naive = matrix.MulNaive(la, lb) },
			func() { got = sh.Product(a, b) })
		if !matrix.Equal(naive, got, 1e-12) {
			return nil, fmt.Errorf("bench: gemm paths diverge at %s %v", sh.Name, sh)
		}
		lines = append(lines, fmt.Sprintf("%-14s %-20s %12v %12v %8.2fx", sh.Name, sh,
			tNaive.Round(time.Microsecond), tGot.Round(time.Microsecond), speedup))
	}
	return lines, nil
}

// pairedCalls is how many calls of each side pairedSpeedup times per unit of
// Scale.Runs.
const pairedCalls = 8

// pairedSpeedup times a reference kernel against its alternative the paired
// way (interleavedRatio: the two sides alternate call by call, order
// flipping, lower-quartile call time per side), which keeps a sub-millisecond
// product's reading out of the scheduler and collector noise that a best-of-N
// of each side in turn picks up. It returns the alternative's speedup and
// both sides' mean time per call.
func pairedSpeedup(reps int, base, alt func()) (speedup float64, tBase, tAlt time.Duration) {
	calls := pairedCalls * reps
	ratio, total, _ := interleavedRatio(calls, 1, 1, func(isAlt bool, _, _ int) (time.Duration, error) {
		fn := base
		if isAlt {
			fn = alt
		}
		start := time.Now()
		fn()
		return time.Since(start), nil
	})
	return 1 / ratio, total[false] / time.Duration(calls), total[true] / time.Duration(calls)
}

// best returns the fastest of reps timed runs of fn.
func best(reps int, fn func()) time.Duration {
	var min time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); r == 0 || d < min {
			min = d
		}
	}
	return min
}
