package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// propertyTilings are deliberately awkward tile configurations: tiny tiles
// force edge micro-kernels everywhere, non-default shapes shift every panel
// boundary. Results must be invariant (to 1e-12) under all of them.
var propertyTilings = []Tiling{
	DefaultTiling(),
	{MC: 4, KC: 1, NC: 4},
	{MC: 8, KC: 3, NC: 8},
	{MC: 12, KC: 7, NC: 20},
	{MC: 32, KC: 64, NC: 48},
	{MC: 256, KC: 512, NC: 512},
}

// randShape draws a dimension that is frequently a multiple of the
// micro-kernel tile and frequently not, covering both kernel paths.
func randShape(rng *rand.Rand) int {
	n := 1 + rng.Intn(96)
	if rng.Intn(2) == 0 {
		n = (n/4 + 1) * 4
	}
	return n
}

// randContents fills with unit-scale values and sprinkles exact zeros so the
// naive kernels' zero-skip branch is exercised against the blocked path.
func randContents(m *Dense, rng *rand.Rand) {
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = 0
			continue
		}
		m.Data[i] = rng.Float64()*2 - 1
	}
}

// trainingShapes are (n, k, p) of Step 2's P·H beside the tile grid: n = k =
// 281 and 283 leave a partial last tile row, p = 1, 5, 7 (class counts) make
// every tile column partial — what the square sweeps never touch.
var trainingShapes = [][3]int{
	{281, 281, 1}, {281, 281, 5}, {281, 281, 7},
	{283, 283, 1}, {283, 283, 5}, {283, 283, 7},
}

// withScalarKernel runs fn twice when the SIMD micro-kernel is available —
// once with it, once forced onto the portable scalar kernel — so both
// engines face every property on SIMD machines.
func withScalarKernel(t *testing.T, fn func(t *testing.T)) {
	t.Run("kernel=auto", fn)
	if !useSIMD {
		return
	}
	t.Run("kernel=scalar", func(t *testing.T) {
		useSIMD = false
		defer func() { useSIMD = true }()
		fn(t)
	})
}

// TestPropertyBlockedMatchesNaiveMul drives the blocked engine directly
// (ignoring the cutover) over random shapes, contents and tilings and
// demands agreement with the naive kernel within 1e-12.
func TestPropertyBlockedMatchesNaiveMul(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		defer SetTiling(SetTiling(DefaultTiling()))
		for iter := 0; iter < 80; iter++ {
			n, k, p := randShape(rng), randShape(rng), randShape(rng)
			tile := propertyTilings[rng.Intn(len(propertyTilings))]
			SetTiling(tile)
			a, b := New(n, k), New(k, p)
			randContents(a, rng)
			randContents(b, rng)
			blocked := New(n, p)
			blockedMulInto(blocked, a, b)
			naive := New(n, p)
			naiveMulInto(naive, a, b)
			if !Equal(blocked, naive, 1e-12) {
				t.Fatalf("iter %d: blocked (%dx%d)·(%dx%d) tiles %+v diverges from naive", iter, n, k, k, p, tile)
			}
		}
	})
}

// TestPropertyDispatchedKernelsMatchNaive exercises the public entry points
// at shapes straddling the cutover: whichever path dispatch picks, Mul, MulT
// and TMul must agree with their naive references within 1e-12.
func TestPropertyDispatchedKernelsMatchNaive(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		defer SetTiling(SetTiling(DefaultTiling()))
		check := func(iter, n, k, p int) {
			SetTiling(propertyTilings[rng.Intn(len(propertyTilings))])
			a, b := New(n, k), New(k, p)
			randContents(a, rng)
			randContents(b, rng)
			if !Equal(Mul(a, b), MulNaive(a, b), 1e-12) {
				t.Fatalf("iter %d: Mul (%d,%d,%d) diverges from MulNaive", iter, n, k, p)
			}
			bt := New(p, k)
			randContents(bt, rng)
			wantMulT := New(n, p)
			naiveMulTInto(wantMulT, a, bt)
			if !Equal(MulT(a, bt), wantMulT, 1e-12) {
				t.Fatalf("iter %d: MulT (%d,%d,%d) diverges from naive", iter, n, k, p)
			}
			at := New(k, n)
			randContents(at, rng)
			wantTMul := New(n, p)
			naiveTMulInto(wantTMul, at, b)
			if !Equal(TMul(at, b), wantTMul, 1e-12) {
				t.Fatalf("iter %d: TMul (%d,%d,%d) diverges from naive", iter, n, k, p)
			}
		}
		// 64^3 == BlockedCutover, so dims around 64 land on both sides.
		dims := []int{31, 63, 64, 65, 96, 128}
		for iter := 0; iter < 40; iter++ {
			n := dims[rng.Intn(len(dims))]
			k := dims[rng.Intn(len(dims))]
			p := dims[rng.Intn(len(dims))]
			check(iter, n, k, p)
		}
		// The shapes training runs: n_i x n_i against n_i x C, a partial last
		// tile row and every tile column partial.
		for i, s := range trainingShapes {
			check(40+i, s[0], s[1], s[2])
		}
	})
}

// TestPropertyBlockedBitIdenticalAcrossWorkers enforces the tiled path's
// determinism contract: for any tiling and any shape — aligned or not — the
// blocked engine returns bit-identical results for every worker count.
func TestPropertyBlockedBitIdenticalAcrossWorkers(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		defer SetTiling(SetTiling(DefaultTiling()))
		shapes := append([][3]int{{160, 120, 140}, {257, 129, 67}, {64, 512, 64}, {501, 33, 77}}, trainingShapes...)
		for _, tile := range propertyTilings {
			SetTiling(tile)
			for _, s := range shapes {
				n, k, p := s[0], s[1], s[2]
				a, b := randDense(n, k, int64(n+k)), randDense(k, p, int64(k+p))
				orig := parallel.SetWorkers(1)
				serial := New(n, p)
				blockedMulInto(serial, a, b)
				for _, w := range []int{2, 3, 8} {
					parallel.SetWorkers(w)
					got := New(n, p)
					blockedMulInto(got, a, b)
					exactEqual(t, fmt.Sprintf("blocked %v tiles %+v workers=%d", s, tile, w), got, serial)
				}
				parallel.SetWorkers(orig)
			}
		}
	})
}

// bitEqual fails unless got and want hold the same float64 bits (so -0 and
// +0 differ, unlike exactEqual).
func bitEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if !SameShape(got, want) {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, v, want.Data[i])
		}
	}
}

// TestPropertyTransposedOperandBitIdentical is what lets AdaFGL Step 2 drop
// its materialised P⁺ᵀ/P⁻ᵀ: TMul(a, b) must return the very bits of
// Mul(Transpose(a), b) on both sides of BlockedCutover — the naive kernels
// accumulate each dst element over the shared dimension in the same ascending
// order with the same zero-skip, and the blocked engine packs identical A
// panels from either layout. MulTInto into a stale buffer must likewise
// return MulT's bits. Shapes cover Step 2's (n_i x n_i)ᵀ·(n_i x C) around the
// cutover (n_i ≈ 194 at C = 7) and general products; a holds exact zeros and
// negative zeros like the PoSign/NeSign halves do.
func TestPropertyTransposedOperandBitIdentical(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		defer SetTiling(SetTiling(DefaultTiling()))
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		shapes := [][3]int{ // a is k x n, b is k x p
			{50, 50, 7}, {150, 150, 2}, {193, 193, 7}, {194, 194, 7}, {224, 224, 7}, {280, 280, 7}, {300, 300, 10},
			{31, 64, 65}, {64, 64, 64}, {96, 63, 128}, {1, 9, 1}, {129, 257, 67},
		}
		for iter, s := range shapes {
			k, n, p := s[0], s[1], s[2]
			a, b := New(k, n), New(k, p)
			randContents(a, rng)
			randContents(b, rng)
			for i := range a.Data {
				if a.Data[i] == 0 && i%2 == 0 {
					a.Data[i] = math.Copysign(0, -1)
				}
			}
			SetTiling(propertyTilings[iter%len(propertyTilings)])
			at := Transpose(a)
			stale := New(n, n)
			for _, w := range []int{1, 3} {
				parallel.SetWorkers(w)
				name := fmt.Sprintf("(%dx%d)ᵀ·(%dx%d) workers=%d", k, n, k, p, w)
				bitEqual(t, "TMul "+name, TMul(a, b), Mul(at, b))
				stale.Fill(99)
				MulTInto(stale, at, at)
				bitEqual(t, "MulTInto "+name, stale, MulT(at, at))
			}
		}
	})
}

func TestMulTIntoShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	MulTInto(New(2, 2), New(2, 3), New(4, 3))
}

// TestPropertyBlockedOrientationsAtTrainingShapes drives all four operand
// orientations of the blocked engine (the public entry points reach three)
// at the training shapes and at tile-aligned n = 280: within 1e-12 of the
// naive reference, bit-identical for every worker count, and — with p < nr
// every tile is partial, none fused — the SIMD engine reproduces the portable
// engine bit for bit.
func TestPropertyBlockedOrientationsAtTrainingShapes(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	rng := rand.New(rand.NewSource(19))
	shapes := append([][3]int{{280, 280, 1}, {280, 280, 5}, {280, 280, 7}}, trainingShapes...)
	for _, s := range shapes {
		n, k, p := s[0], s[1], s[2]
		la, lb := New(n, k), New(k, p) // logical operands
		randContents(la, rng)
		randContents(lb, rng)
		want := MulNaive(la, lb)
		ta, tb := Transpose(la), Transpose(lb)
		for _, aT := range []bool{false, true} {
			for _, bT := range []bool{false, true} {
				a, b := la, lb
				if aT {
					a = ta
				}
				if bT {
					b = tb
				}
				product := func() *Dense {
					out := New(n, p)
					blockedGEMM(out, lhsOf(a, aT), b, bT)
					return out
				}
				name := fmt.Sprintf("blocked(aT=%v,bT=%v) n=%d p=%d", aT, bT, n, p)
				parallel.SetWorkers(1)
				serial := product()
				if !Equal(serial, want, 1e-12) {
					t.Fatalf("%s diverges from MulNaive", name)
				}
				for _, w := range []int{2, 3} {
					parallel.SetWorkers(w)
					bitEqual(t, fmt.Sprintf("%s workers=%d", name, w), product(), serial)
				}
				parallel.SetWorkers(1)
				if useSIMD {
					useSIMD = false
					portable := product()
					useSIMD = true
					if p < nr {
						bitEqual(t, name+" SIMD vs portable engine (all tiles partial)", serial, portable)
					} else if !Equal(serial, portable, 1e-12) {
						t.Fatalf("%s: SIMD and portable engines diverge", name)
					}
				}
			}
		}
	}
}

// TestPropertyNoTileReachesPortableKernelOnSIMD holds the dispatch to "SIMD ⇒
// full and partial tiles both run a vector kernel, the portable microKernel
// is only the fallback without it", for every tile extent and every extent of
// the tile after it: a full tile runs paired exactly when a full tile follows
// it in the panel, and on the single fused kernel otherwise.
func TestPropertyNoTileReachesPortableKernelOnSIMD(t *testing.T) {
	for vr := 1; vr <= mr; vr++ {
		for vc := 1; vc <= nr; vc++ {
			for next := -nr; next <= 2*nr; next++ {
				want := tileEdgeAVX
				switch {
				case vr == mr && vc == nr && next >= nr:
					want = tilePairAVX
				case vr == mr && vc == nr:
					want = tileFullAVX
				}
				if got := tileKernel(true, vr, vc, next); got != want {
					t.Fatalf("SIMD %dx%d tile (next %d) runs kernel %d, want %d", vr, vc, next, got, want)
				}
				if got := tileKernel(false, vr, vc, next); got != tilePortable {
					t.Fatalf("non-SIMD %dx%d tile (next %d) runs kernel %d, want the portable one", vr, vc, next, got)
				}
			}
		}
	}
}

// TestGEMMCountersFollowDispatch: one count per product on the engine that
// ran it, full and partial tiles counted from the shape, nothing while
// telemetry is off.
func TestGEMMCountersFollowDispatch(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	small, big := randDense(8, 8, 1), randDense(64, 64, 2) // 64^3 == BlockedCutover
	read := func() [4]uint64 {
		return [4]uint64{telGEMMNaive.Value(), telGEMMBlocked.Value(), telTilesFull.Value(), telTilesEdge.Value()}
	}
	before := read()
	Mul(small, small)
	MulT(small, small)
	TMul(small, small)
	MulNaive(big, big)
	Mul(big, big)
	after := read()
	want := [4]uint64{before[0] + 4, before[1] + 1, before[2] + 16*16, before[3]}
	if after != want {
		t.Fatalf("counters (naive, blocked, full, edge) %v -> %v, want %v", before, after, want)
	}
	// 71 tile rows x 2 tile columns x 2 KC slices, of which 70 x 1 x 2 full.
	blockedMulInto(New(283, 7), randDense(283, 300, 3), randDense(300, 7, 4))
	want, after = [4]uint64{after[0], after[1] + 1, after[2] + 140, after[3] + 144}, read()
	if after != want {
		t.Fatalf("counters after a product with partial tiles %v, want %v", after, want)
	}
	telemetry.SetEnabled(false)
	Mul(small, small)
	Mul(big, big)
	if read() != after {
		t.Fatalf("counters moved with telemetry disabled: %v -> %v", after, read())
	}
}
