package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// packedShapes are (n, k, p) of op(A)·B for the packed-operand property:
// every dimension ≢ 0 mod 4, so the last panel of A is zero-padded and the
// last tile column partial, and k > the default KC of 256, so a product
// spans more than one KC slice of each full-depth panel. The first two sit
// above BlockedCutover (67·301·13 is just past it), the last two below.
var packedShapes = [][3]int{
	{67, 301, 13}, {281, 263, 7}, {37, 259, 9}, {5, 301, 3},
}

// packedTilings are the three tilings the property runs under: the default,
// and two that move every MC/KC/NC boundary — the pack's layout must not
// depend on any of them.
var packedTilings = []Tiling{DefaultTiling(), {MC: 8, KC: 3, NC: 8}, {MC: 12, KC: 7, NC: 20}}

// TestPropertyPackedMatchesMulAndTMul holds (*Packed).MulInto bit for bit to
// Mul (PackMul) and TMul (PackTMul) of the operand it was packed from, on
// both sides of BlockedCutover, under three tilings, at workers 1 and 3, and
// on the scalar kernel too: a pack is the same engine handed A already
// packed, never a second arithmetic path. One pack serves several B, and is
// packed under one tiling and used under another.
func TestPropertyPackedMatchesMulAndTMul(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		defer SetTiling(SetTiling(DefaultTiling()))
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		rng := rand.New(rand.NewSource(41))
		for _, s := range packedShapes {
			n, k, p := s[0], s[1], s[2]
			blocked := gemmFlops(n, k, p) >= BlockedCutover
			a, at := New(n, k), New(k, n) // A for PackMul, A for PackTMul (op = ᵀ)
			randContents(a, rng)
			randContents(at, rng)
			pm, pt := PackMul(a, p), PackTMul(at, p)
			for _, pk := range []*Packed{pm, pt} {
				if got := pk.panels != nil; got != blocked {
					t.Fatalf("(%d,%d,%d): pack holds panels = %v, want %v (the kernel Mul picks)", n, k, p, got, blocked)
				}
				if got := pk.a != nil; got == blocked {
					t.Fatalf("(%d,%d,%d): pack keeps the row-major operand = %v above the cutover = %v", n, k, p, got, blocked)
				}
			}
			for _, tile := range packedTilings {
				SetTiling(tile)
				b := New(k, p)
				randContents(b, rng)
				wantMul, wantTMul := Mul(a, b), TMul(at, b)
				for _, w := range []int{1, 3} {
					parallel.SetWorkers(w)
					name := fmt.Sprintf("(%d,%d,%d) tiles %+v workers=%d", n, k, p, tile, w)
					got := New(n, p)
					got.Fill(math.NaN()) // a reused buffer holds anything
					pm.MulInto(got, b)
					bitEqual(t, "PackMul "+name, got, wantMul)
					got.Fill(math.NaN())
					pt.MulInto(got, b)
					bitEqual(t, "PackTMul "+name, got, wantTMul)
				}
				parallel.SetWorkers(1)
			}
		}
	})
}

func TestPackedShapeAndRows(t *testing.T) {
	a := New(6, 5)
	if PackMul(a, 3).Rows() != 6 || PackTMul(a, 3).Rows() != 5 {
		t.Fatal("Rows is the product's row count: a.Rows for PackMul, a.Cols for PackTMul")
	}
	for name, fn := range map[string]func(){
		"operand width": func() { PackMul(a, 3).MulInto(New(6, 4), New(5, 4)) },
		"operand depth": func() { PackMul(a, 3).MulInto(New(6, 3), New(6, 3)) },
		"dst shape":     func() { PackTMul(a, 3).MulInto(New(6, 3), New(6, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: wrong shape accepted", name)
				}
			}()
			fn()
		}()
	}
}

// mustPanicOverlap runs fn and requires the named aliasing panic.
func mustPanicOverlap(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: an aliased destination was accepted", name)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "dst overlaps an operand") {
			t.Fatalf("%s: panic %q does not name the overlap", name, msg)
		}
	}()
	fn()
}

// TestIntoFormsPanicOnAliasedDst: a product reads its operands after it has
// started writing dst, so MulInto(a, a, I) used to return all zeros. Every
// product Into form must refuse a destination sharing memory with an
// operand — the same matrix, or a view overlapping it — on both sides of the
// cutover, and accept views of one array that do not overlap.
func TestIntoFormsPanicOnAliasedDst(t *testing.T) {
	for _, n := range []int{4, 80} { // 80³ is past BlockedCutover
		a, id := New(n, n), Identity(n)
		mustPanicOverlap(t, "MulInto(a, a, I)", func() { MulInto(a, a, id) })
		mustPanicOverlap(t, "MulInto(b, a, b)", func() { MulInto(id, a, id) })
		mustPanicOverlap(t, "MulTInto(a, a, I)", func() { MulTInto(a, a, id) })
		mustPanicOverlap(t, "MulTInto(b, a, b)", func() { MulTInto(id, a, id) })
		mustPanicOverlap(t, "TMulInto(a, a, I)", func() { TMulInto(a, a, id) })
		mustPanicOverlap(t, "TMulInto(b, a, b)", func() { TMulInto(id, a, id) })
		mustPanicOverlap(t, "Packed.MulInto(b, b)", func() { PackMul(a, n).MulInto(id, id) })
		mustPanicOverlap(t, "PackedT.MulInto(b, b)", func() { PackTMul(a, n).MulInto(id, id) })
	}
	// Below the cutover a pack reads A itself, so dst must not overlap it.
	a := New(4, 4)
	mustPanicOverlap(t, "Packed.MulInto(A, ·) below the cutover", func() { PackMul(a, 4).MulInto(a, Identity(4)) })

	// A view overlapping by one element is caught; disjoint views are not.
	buf := make([]float64, 2*16)
	x := FromSlice(4, 4, buf[:16])
	mustPanicOverlap(t, "partial overlap", func() { MulInto(FromSlice(4, 4, buf[15:31]), x, Identity(4)) })
	y := FromSlice(4, 4, buf[16:])
	randContents(x, rand.New(rand.NewSource(3)))
	MulInto(y, x, Identity(4))
	bitEqual(t, "disjoint views of one array", y, x)
}

// TestTMulIntoMatchesTMul holds the caller-owned form to TMul bit for bit on
// both sides of the cutover, over a destination holding stale values.
func TestTMulIntoMatchesTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range [][3]int{{9, 7, 5}, {70, 65, 66}} {
		a, b := New(s[0], s[1]), New(s[0], s[2])
		randContents(a, rng)
		randContents(b, rng)
		dst := New(s[1], s[2])
		dst.Fill(math.NaN())
		TMulInto(dst, a, b)
		bitEqual(t, fmt.Sprintf("TMulInto %v", s), dst, TMul(a, b))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TMulInto accepted a wrong dst shape")
		}
	}()
	TMulInto(New(2, 2), New(3, 2), New(3, 3))
}

// TestElementwiseIntoFormsMatchFreshForms: the Into forms are what Add, Sub,
// Scale, ColSums and SoftmaxRows wrap, over stale destinations and in place
// (dst = an operand), with shape mismatches refused.
func TestElementwiseIntoFormsMatchFreshForms(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := New(5, 3), New(5, 3)
	randContents(a, rng)
	randContents(b, rng)
	stale := func() *Dense { d := New(5, 3); d.Fill(math.NaN()); return d }

	d := stale()
	AddInto(d, a, b)
	bitEqual(t, "AddInto", d, Add(a, b))
	d = stale()
	SubInto(d, a, b)
	bitEqual(t, "SubInto", d, Sub(a, b))
	d = stale()
	ScaleInto(d, 0.3, a)
	bitEqual(t, "ScaleInto", d, Scale(0.3, a))
	d = stale()
	SoftmaxRowsInto(d, a)
	bitEqual(t, "SoftmaxRowsInto", d, SoftmaxRows(a))
	sums := []float64{math.NaN(), math.NaN(), math.NaN()}
	ColSumsInto(sums, a)
	bitEqual(t, "ColSumsInto", FromSlice(1, 3, sums), FromSlice(1, 3, ColSums(a)))

	in := a.Clone()
	SubInto(in, in, b)
	bitEqual(t, "SubInto in place", in, Sub(a, b))
	in = a.Clone()
	SoftmaxRowsInto(in, in)
	bitEqual(t, "SoftmaxRowsInto in place", in, SoftmaxRows(a))

	for name, fn := range map[string]func(){
		"AddInto":         func() { AddInto(New(5, 2), a, b) },
		"SubInto":         func() { SubInto(a, a, New(5, 2)) },
		"ScaleInto":       func() { ScaleInto(New(3, 5), 2, a) },
		"SoftmaxRowsInto": func() { SoftmaxRowsInto(New(3, 5), a) },
		"ColSumsInto":     func() { ColSumsInto(make([]float64, 2), a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a wrong shape", name)
				}
			}()
			fn()
		}()
	}
}
