package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// The blocked-SpMM property suite. The engine's contract is stronger than
// the GEMM engine's 1e-12: because the micro-kernel never contracts
// multiply-add into FMA and panels preserve ascending column order, the
// blocked path must be BIT-identical to the row-streamed reference for
// every shape, density, panel width, worker count and SIMD setting.

// sprinkledCSR builds an nr x nc CSR with roughly density fraction of
// entries, including duplicate coordinates (summed by FromCoords).
func sprinkledCSR(nr, nc int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := int(density * float64(nr) * float64(nc))
	coords := make([]Coord, 0, n+2)
	for i := 0; i < n; i++ {
		coords = append(coords, Coord{rng.Intn(nr), rng.Intn(nc), rng.NormFloat64()})
	}
	if n > 0 { // force at least one duplicate pair
		coords = append(coords, coords[0], coords[0])
	}
	return FromCoords(nr, nc, coords)
}

func assertBitIdentical(t *testing.T, tag string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d = %v, reference %v", tag, i, v, want.Data[i])
		}
	}
}

// TestBlockedSpMMMatchesNaive sweeps shapes, densities, operand widths and
// panel widths: the plan product must be bit-identical to CSR.MulDense, the
// row-streamed kernel (which also bounds it far inside the 1e-12 acceptance
// tolerance).
func TestBlockedSpMMMatchesNaive(t *testing.T) {
	shapes := []struct{ nr, nc, p int }{
		{1, 1, 1}, {3, 7, 5}, {40, 40, 1}, {64, 128, 3},
		{200, 50, 16}, {50, 200, 33}, {300, 300, 8},
	}
	densities := []float64{0, 0.01, 0.1, 0.5}
	panels := []int{1, 3, 16, 64, 4096}
	for _, sh := range shapes {
		for _, d := range densities {
			m := sprinkledCSR(sh.nr, sh.nc, d, int64(sh.nr*1000+sh.nc+int(d*100)))
			x := randomDense(sh.nc, sh.p, int64(sh.p))
			want := m.MulDense(x)
			for _, panel := range panels {
				pl := NewPlanBlocking(m, Blocking{Panel: panel})
				assertBitIdentical(t, "plan", pl.MulDense(x), want)
			}
		}
	}
}

// TestBlockedSpMMAboveCutover runs the blocked engine at a size where the
// panels carry real work (~20k entries against 64 columns, 8 panels) against
// the row-streamed kernel, twice through one plan: a plan is immutable, so
// reuse cannot change a bit.
func TestBlockedSpMMAboveCutover(t *testing.T) {
	m := sprinkledCSR(2000, 2000, 0.005, 9) // ~20k nnz
	x := randomDense(2000, 64, 10)
	pl := NewPlanBlocking(m, Blocking{Panel: 250})
	want := m.MulDense(x)
	assertBitIdentical(t, "above-cutover", pl.MulDense(x), want)
	assertBitIdentical(t, "above-cutover reused", pl.MulDense(x), want)
}

// TestBlockedSpMMWorkerBitIdentity fixes the engine's determinism contract:
// identical bits for every worker count, on both kernels, and between them.
func TestBlockedSpMMWorkerBitIdentity(t *testing.T) {
	m := sprinkledCSR(1500, 1500, 0.01, 11)
	x := randomDense(1500, 24, 12)
	pl := NewPlanBlocking(m, Blocking{Panel: 256})

	orig := parallel.SetWorkers(1)
	defer parallel.SetWorkers(orig)
	serial := m.MulDense(x)
	assertBitIdentical(t, "plan vs rowstream", pl.MulDense(x), serial)

	for _, w := range []int{2, 3, 4, 8, 13} {
		parallel.SetWorkers(w)
		assertBitIdentical(t, "plan workers", pl.MulDense(x), serial)
		assertBitIdentical(t, "rowstream workers", m.MulDense(x), serial)
	}
}

// TestBlockedSpMMScalarFallback forces the portable scalar micro-kernel and
// requires bit-identity with both the SIMD result and the reference — the
// no-FMA design means the AVX kernel computes exactly the scalar arithmetic.
func TestBlockedSpMMScalarFallback(t *testing.T) {
	m := sprinkledCSR(400, 400, 0.05, 13)
	x := randomDense(400, 17, 14) // odd width exercises the 4-wide + scalar tails
	pl := NewPlanBlocking(m, Blocking{Panel: 128})
	want := m.MulDense(x)

	simd := pl.MulDense(x)
	defer func(v bool) { useSIMD = v }(useSIMD)
	useSIMD = false
	scalar := pl.MulDense(x)

	assertBitIdentical(t, "scalar vs reference", scalar, want)
	assertBitIdentical(t, "simd vs scalar", simd, scalar)
}

// TestMulDenseIntoAliasPanics pins the satellite fix: an aliased destination
// must panic with a named-op message instead of silently corrupting the
// product.
func TestMulDenseIntoAliasPanics(t *testing.T) {
	m := sprinkledCSR(20, 20, 0.2, 15)
	x := randomDense(20, 20, 16)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"MulDenseInto", func() { m.MulDenseInto(x, x) }},
		{"Plan.MulDenseInto", func() { NewPlan(m).MulDenseInto(x, x) }},
		{"MulDenseInto shared backing", func() {
			y := matrix.FromSlice(20, 20, x.Data)
			m.MulDenseInto(y, x)
		}},
		{"MulDenseInto partial overlap", func() {
			buf := make([]float64, 21*20)
			dst := matrix.FromSlice(20, 20, buf[:20*20])
			src := matrix.FromSlice(20, 20, buf[20:])
			m.MulDenseInto(dst, src)
		}},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: aliased dst did not panic", tc.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "MulDenseInto") || !strings.Contains(msg, "alias") {
					t.Fatalf("%s: panic %v does not name the op and the alias", tc.name, r)
				}
			}()
			tc.call()
		}()
	}
}

// TestPlanPropagateInto checks k-step propagation that ping-pongs between
// two buffers through Plan.MulDenseInto, the allocation-free loop of the
// propagation callers, against repeated MulDense calls.
func TestPlanPropagateInto(t *testing.T) {
	m := sprinkledCSR(120, 120, 0.05, 17)
	pl := NewPlan(m)
	if pl.Matrix() != m {
		t.Fatal("Plan.Matrix must return the source CSR")
	}
	x := randomDense(120, 9, 18)

	want := x.Clone()
	for i := 0; i < 5; i++ {
		want = pl.MulDense(want)
	}
	cur, next := x.Clone(), matrix.New(120, 9)
	for i := 0; i < 5; i++ {
		pl.MulDenseInto(next, cur)
		cur, next = next, cur
	}
	assertBitIdentical(t, "MulDenseInto ping-pong", cur, want)
}

// TestBlockingConfig covers the process-wide panel knob.
func TestBlockingConfig(t *testing.T) {
	orig := SetBlocking(Blocking{Panel: 123})
	defer SetBlocking(orig)
	if got := CurrentBlocking().Panel; got != 123 {
		t.Fatalf("Panel = %d after SetBlocking(123)", got)
	}
	SetBlocking(Blocking{Panel: 0}) // falls back to the default
	if got, want := CurrentBlocking().Panel, DefaultBlocking().Panel; got != want {
		t.Fatalf("Panel = %d after reset, want default %d", got, want)
	}
}

// TestNormalizedPooledMatchesSequential guards the pooled/parallel
// Normalized rewrite: results must equal an entry-by-entry sequential
// recomputation for every norm kind, and Degrees must be unaffected by
// pooling.
func TestNormalizedPooledMatchesSequential(t *testing.T) {
	m := sprinkledCSR(600, 600, 0.02, 19).WithSelfLoops()
	deg := m.Degrees()
	for i := 0; i < m.NRows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var s float64
		for _, v := range m.Val[lo:hi] {
			s += v
		}
		if s != deg[i] {
			t.Fatalf("Degrees row %d = %v, want %v", i, deg[i], s)
		}
	}
	for _, kind := range []NormKind{NormSym, NormRW, NormReverse} {
		// Run twice so the second call consumes pooled scratch.
		first := m.Normalized(kind)
		second := m.Normalized(kind)
		for k := range first.Val {
			if first.Val[k] != second.Val[k] {
				t.Fatalf("kind=%d: pooled rerun diverges at nnz %d", kind, k)
			}
		}
	}
}
