package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a, b := New(7, 5), New(5, 4)
	RandomNormal(a, 0, 1, rng)
	RandomNormal(b, 0, 1, rng)
	dst := New(7, 4)
	dst.Fill(99) // must be overwritten, not accumulated
	MulInto(dst, a, b)
	if !Equal(dst, Mul(a, b), 1e-12) {
		t.Fatal("MulInto disagrees with Mul")
	}
}

func TestMulIntoShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dst shape")
		}
	}()
	MulInto(New(2, 2), New(2, 3), New(3, 4))
}

func TestFromSlicePanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong data length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dims")
		}
	}()
	New(-1, 3)
}

func TestEmptyMatrixOps(t *testing.T) {
	e := New(0, 0)
	if Mean(e) != 0 || FrobeniusNorm(e) != 0 || MaxAbs(e) != 0 {
		t.Fatal("empty matrix reductions must be 0")
	}
	if c := ConcatCols(); c.Rows != 0 || c.Cols != 0 {
		t.Fatal("empty ConcatCols must be 0x0")
	}
}

func TestStringRendering(t *testing.T) {
	small, _ := FromRows([][]float64{{1, 2}})
	if s := small.String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	big := New(30, 30)
	if s := big.String(); s != "Dense(30x30)" {
		t.Fatalf("large matrix should render compactly, got %q", s)
	}
}

func TestEqualNaNSemantics(t *testing.T) {
	nan := math.NaN()
	a, _ := FromRows([][]float64{{1, nan}})
	b, _ := FromRows([][]float64{{1, nan}})
	if !Equal(a, b, 0) {
		t.Fatal("NaN at matching positions must compare equal")
	}
	c, _ := FromRows([][]float64{{1, 2}})
	if Equal(a, c, 1e9) {
		t.Fatal("NaN vs finite must compare unequal at any tolerance")
	}
	if Equal(c, a, 1e9) {
		t.Fatal("finite vs NaN must compare unequal at any tolerance")
	}
}

func TestScaleInPlaceAndFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	ScaleInPlace(m, 2)
	if m.At(1, 1) != 6 {
		t.Fatalf("ScaleInPlace got %v", m.At(1, 1))
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
}

// packedPanels draws zero-padded packed micro-panels the way packA/packB
// produce them for a vr x vc tile over kw steps: rows >= vr of ap and columns
// >= vc of bp are +0, the rest unit-scale values with exact zeros and
// negative zeros mixed in (the PoSign/NeSign halves Step 2 multiplies by are
// mostly ±0).
func packedPanels(rng *rand.Rand, vr, vc, kw int) (ap, bp []float64) {
	ap, bp = make([]float64, kw*mr+mr), make([]float64, kw*nr+nr) // +tile so &ap[0] exists at kw = 0
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64()*2 - 1
	}
	for kk := 0; kk < kw; kk++ {
		for r := 0; r < vr; r++ {
			ap[kk*mr+r] = draw()
		}
		for c := 0; c < vc; c++ {
			bp[kk*nr+c] = draw()
		}
	}
	return ap, bp
}

// TestPropertyEdgeKernelMatchesPortableBits is the contract that lets partial tiles
// run on vector lanes without moving a golden digest: for every valid corner
// vr x vc and shared-dimension depths around the KC tile, edgeTileAVX leaves
// in dst exactly the bits the portable microKernel does (and touches nothing
// outside the corner).
func TestPropertyEdgeKernelMatchesPortableBits(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX2+FMA: the portable kernel is the only edge kernel")
	}
	rng := rand.New(rand.NewSource(41))
	const stride = 7
	for _, kw := range []int{0, 1, 2, 7, 255, 256, 257} {
		for vr := 1; vr <= mr; vr++ {
			for vc := 1; vc <= nr; vc++ {
				ap, bp := packedPanels(rng, vr, vc, kw)
				want := make([]float64, mr*stride)
				for i := range want {
					want[i] = rng.Float64()*2 - 1
				}
				want[0] = math.Copysign(0, -1) // −0 + (+0 partial sum) must come out +0 on both
				got := append([]float64(nil), want...)
				microKernel(want, stride, vr, vc, kw, ap, bp)
				edgeTileAVX(got, stride, vr, vc, kw, ap, bp)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("kw=%d vr=%d vc=%d: dst[%d] = %v (%#x), portable kernel %v (%#x)", kw, vr, vc,
							i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// refPackA and refPackB are the packing layouts written out element by
// element from their definitions, with no fast path: micro-panel g holds
// logical element (row g*mr+r, step kk) of op(a) at g*kw*mr + kk*mr + r
// (columns likewise for op(b)), zero beyond the panel's valid rows/columns.
func refPackA(a *Dense, aT bool, i0, iw, iwR, kc, kw int) []float64 {
	ap := make([]float64, iwR*kw)
	for g := 0; g < iwR/mr; g++ {
		for kk := 0; kk < kw; kk++ {
			for r := 0; r < mr && g*mr+r < iw; r++ {
				i, k := i0+g*mr+r, kc+kk
				if aT {
					i, k = k, i
				}
				ap[g*kw*mr+kk*mr+r] = a.At(i, k)
			}
		}
	}
	return ap
}

func refPackB(b *Dense, bT bool, kc, kw, jc, jw, jwR int) []float64 {
	bp := make([]float64, jwR*kw)
	for g := 0; g < jwR/nr; g++ {
		for kk := 0; kk < kw; kk++ {
			for c := 0; c < nr && g*nr+c < jw; c++ {
				k, j := kc+kk, jc+g*nr+c
				if bT {
					k, j = j, k
				}
				bp[g*kw*nr+kk*nr+c] = b.At(k, j)
			}
		}
	}
	return bp
}

// TestPropertyPackMatchesLayoutDefinition holds packA and packB — full-panel
// fast paths and partial last panels, both operand orientations — to the
// layout's definition on random windows, writing into a dirty buffer so a
// missed zero pad shows.
func TestPropertyPackMatchesLayoutDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	same := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: packed[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	for iter := 0; iter < 200; iter++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := New(rows, cols)
		randContents(m, rng)
		for _, tr := range []bool{false, true} {
			// Logical operand op(m) is L x K: m itself, or its transpose.
			l, k := rows, cols
			if tr {
				l, k = cols, rows
			}
			x0 := rng.Intn(l)
			xw := 1 + rng.Intn(l-x0)
			kc := rng.Intn(k)
			kw := 1 + rng.Intn(k-kc)
			xwR := roundUp(xw, mr)
			dirty := make([]float64, xwR*kw)
			for i := range dirty {
				dirty[i] = 99
			}
			name := fmt.Sprintf("iter %d %dx%d T=%v window (%d+%d, %d+%d)", iter, rows, cols, tr, x0, xw, kc, kw)
			packA(dirty, m, tr, x0, xw, xwR, kc, kw)
			same("packA "+name, dirty, refPackA(m, tr, x0, xw, xwR, kc, kw))

			// As a B operand op(m) is K x L, so the transposition flips.
			for i := range dirty {
				dirty[i] = 99
			}
			packB(dirty, m, !tr, kc, kw, x0, xw, xwR)
			same("packB "+name, dirty, refPackB(m, !tr, kc, kw, x0, xw, xwR))
		}
	}
}

// TestPropertyNaiveMulTFourChainsMatchSingleChain pins the unrolled a·bᵀ kernel to
// the one-dot-product-at-a-time loop it replaced: every output element is
// still its own ascending sum, so the bits are equal for any number of b
// rows (full groups of four and the remainder).
func TestPropertyNaiveMulTFourChainsMatchSingleChain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, s := range [][3]int{{1, 1, 1}, {5, 7, 3}, {9, 7, 4}, {280, 7, 32}, {13, 32, 7}, {6, 3, 9}, {17, 0, 5}} {
		n, k, p := s[0], s[1], s[2]
		a, b := New(n, k), New(p, k)
		randContents(a, rng)
		randContents(b, rng)
		want := New(n, p)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				var sum float64
				for t, av := range a.Row(i) {
					sum += av * b.Row(j)[t]
				}
				want.Data[i*p+j] = sum
			}
		}
		got := New(n, p)
		got.Fill(99)
		naiveMulTInto(got, a, b)
		bitEqual(t, fmt.Sprintf("(%dx%d)·(%dx%d)ᵀ", n, k, p, k), got, want)
	}
}
