package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// sameValue reports whether got holds want's bits, or both are NaN. IEEE 754
// leaves a NaN result's payload to the operand order, which for a scalar
// multiply is the compiler's choice: a row holding a NaN normalises by a NaN
// factor whose sign math.Abs cleared, so a NaN element meets a NaN of the
// other sign. No kernel contract covers payloads.
func sameValue(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// splitHalves assembles whole n x n halves from SignSplit's stripes, and
// checks on the way that the rows past n are +0 in both panels.
func splitHalves(t *testing.T, beta float64, pt, g *Dense, scale []float64, byCol bool) (pos, neg *Dense) {
	t.Helper()
	n, k := pt.Rows, pt.Cols
	pos, neg = New(n, k), New(n, k)
	sp, sn := make([]float64, mr*k), make([]float64, mr*k)
	for i0 := 0; i0 < n; i0 += mr {
		for i := range sp {
			sp[i], sn[i] = 99, 99 // a reused panel holds anything
		}
		SignSplit(sp, sn, beta, pt, g, scale, byCol, i0)
		for s := 0; s < k; s++ {
			for r := 0; r < mr; r++ {
				if i0+r >= n {
					if math.Float64bits(sp[s*mr+r])|math.Float64bits(sn[s*mr+r]) != 0 {
						t.Fatalf("padded row %d holds %v / %v, want +0", i0+r, sp[s*mr+r], sn[s*mr+r])
					}
					continue
				}
				pos.Data[(i0+r)*k+s], neg.Data[(i0+r)*k+s] = sp[s*mr+r], sn[s*mr+r]
			}
		}
	}
	return pos, neg
}

// splitReference is the split as AdaFGL's Step 2 computed it on whole
// matrices: G normalised in place by NormalizeRowsL1, then every element's
// v = round(β·p̃) + round((1−β)·g) sent to pos when v > 0 and negated into
// neg otherwise, by a branch rather than a mask.
func splitReference(beta float64, pt, g *Dense) (pos, neg *Dense) {
	gn := g.Clone()
	NormalizeRowsL1(gn)
	pos, neg = New(pt.Rows, pt.Cols), New(pt.Rows, pt.Cols)
	rest := 1 - beta
	for i, p := range pt.Data {
		v := float64(beta*p) + float64(rest*gn.Data[i])
		if v > 0 {
			pos.Data[i] = v
		} else {
			neg.Data[i] = -v
		}
	}
	return pos, neg
}

// halvesEqual fails unless got and want agree element for element.
func halvesEqual(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	for i, v := range want.Data {
		if !sameValue(got.Data[i], v) {
			t.Fatalf("%s: element (%d, %d) = %v (%#x), want %v (%#x)", name, i/want.Cols, i%want.Cols,
				got.Data[i], math.Float64bits(got.Data[i]), v, math.Float64bits(v))
		}
	}
}

// splitValues are the special values the split's operands are salted with.
var splitValues = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308,
	math.Inf(1), math.Inf(-1), indefiniteNaN,
}

// splitOperands draws n x n operands P̃ and G of unit-scale values salted
// with splitValues; G's row 1 is all zeros and its row 2 all −0 (rows
// summing to zero), when n has them.
func splitOperands(rng *rand.Rand, n int) (pt, g *Dense) {
	pt, g = New(n, n), New(n, n)
	for _, m := range []*Dense{pt, g} {
		for i := range m.Data {
			if rng.Intn(12) == 0 {
				m.Data[i] = splitValues[rng.Intn(len(splitValues))]
			} else {
				m.Data[i] = rng.Float64()*2 - 1
			}
		}
	}
	if n > 2 {
		clear(g.Row(1))
		for j := range g.Row(2) {
			g.Row(2)[j] = math.Copysign(0, -1)
		}
	}
	return pt, g
}

// TestPropertySignSplitMatchesNormalizeAndSplit holds the split kernel to
// what it replaced — NormalizeRowsL1 on the Gram matrix, then the sign split
// over whole matrices — on the vector kernel and on the scalar loop, for n of
// every residue mod 4 (whole and partial stripes, whole and left-over column
// groups), β inside and outside [0, 1], and operands with ±0, subnormals,
// overflowing magnitudes, ±Inf, NaN and rows summing to zero. With the
// column scale it reads rows of the transposes and must write the transposed
// halves: the stripes Step 2's backward multiplies by.
func TestPropertySignSplitMatchesNormalizeAndSplit(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 65, 66, 67} {
			for _, beta := range []float64{0.7, 0, 1, -0.5} {
				pt, g := splitOperands(rng, n)
				wantPos, wantNeg := splitReference(beta, pt, g)
				scale := make([]float64, n)
				RowL1Scales(scale, g)
				name := fmt.Sprintf("n=%d β=%v", n, beta)
				pos, neg := splitHalves(t, beta, pt, g, scale, false)
				halvesEqual(t, name+" pos", pos, wantPos)
				halvesEqual(t, name+" neg", neg, wantNeg)
				pos, neg = splitHalves(t, beta, Transpose(pt), Transpose(g), scale, true)
				halvesEqual(t, name+" column scale, pos", pos, Transpose(wantPos))
				halvesEqual(t, name+" column scale, neg", neg, Transpose(wantNeg))
			}
		}
	})
}

// TestRowL1ScalesMatchNormalizeRowsL1: scaling each row by its factor is
// NormalizeRowsL1 bit for bit, zero rows (factor 1) included, for row counts
// of every residue mod 4; a dst of the wrong length panics.
func TestRowL1ScalesMatchNormalizeRowsL1(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, rows := range []int{0, 1, 3, 4, 6, 9} {
		_, g := splitOperands(rng, max(rows, 1))
		m := FromSlice(rows, g.Cols, g.Data[:rows*g.Cols])
		want := m.Clone()
		NormalizeRowsL1(want)
		scale := make([]float64, rows)
		RowL1Scales(scale, m)
		for i := 0; i < rows; i++ {
			for j, v := range m.Row(i) {
				if got := v * scale[i]; !sameValue(got, want.At(i, j)) {
					t.Fatalf("rows=%d (%d, %d): %v·%v = %v, NormalizeRowsL1 %v", rows, i, j, v, scale[i], got, want.At(i, j))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a dst shorter than the row count was accepted")
		}
	}()
	RowL1Scales(make([]float64, 2), New(3, 3))
}

// packStripe writes rows [i0, i0+4) of op(s) into panel in MulRowPanels'
// layout, op transposing s when t is set, with +0 past the last row.
func packStripe(panel []float64, s *Dense, t bool, i0 int) {
	n, k := s.Rows, s.Cols
	if t {
		n, k = k, n
	}
	for kk := 0; kk < k; kk++ {
		for r := 0; r < mr; r++ {
			v := 0.0
			switch {
			case i0+r >= n:
			case t:
				v = s.At(kk, i0+r)
			default:
				v = s.At(i0+r, kk)
			}
			panel[kk*mr+r] = v
		}
	}
}

// rowPanelShapes are (n, k, p) of the row-panel property: n ≢ 0 mod 4, so
// the last stripe is partial; the first two above BlockedCutover (the second
// Step 2's own shape beside the tile grid), the rest below it, k = 0 included.
var rowPanelShapes = [][3]int{{67, 301, 13}, {281, 281, 7}, {37, 259, 9}, {5, 301, 3}, {9, 0, 5}}

// TestPropertyRowPanelsMatchMulAndTMul holds MulRowPanels to the products it
// stands in for: fed the stripes of S it returns MulInto(S, b), and fed the
// stripes of Sᵀ it returns TMulInto(S, b), bit for bit, both in one call —
// on both sides of BlockedCutover, under tilings whose KC is no multiple of
// 4 (and smaller than the shared dimension), at workers 1 and 3, and on the
// scalar kernels too. Zeros in S exercise the naive kernel's skip.
func TestPropertyRowPanelsMatchMulAndTMul(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		defer SetTiling(SetTiling(DefaultTiling()))
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		rng := rand.New(rand.NewSource(63))
		for _, sh := range rowPanelShapes {
			n, k, p := sh[0], sh[1], sh[2]
			s, st, b := New(n, k), New(k, n), New(k, p)
			randContents(s, rng)
			randContents(st, rng)
			randContents(b, rng)
			for _, tl := range []Tiling{DefaultTiling(), {MC: 8, KC: 7, NC: 8}, {MC: 12, KC: 67, NC: 20}} {
				SetTiling(tl)
				wantMul, wantTMul := New(n, p), New(n, p)
				MulInto(wantMul, s, b)
				TMulInto(wantTMul, st, b)
				for _, w := range []int{1, 3} {
					parallel.SetWorkers(w)
					gotMul, gotTMul := New(n, p), New(n, p)
					gotMul.Fill(math.NaN())
					gotTMul.Fill(math.NaN())
					MulRowPanels([]*Dense{gotMul, gotTMul}, b, func(i0 int, panels [][]float64) {
						packStripe(panels[0], s, false, i0)
						packStripe(panels[1], st, true, i0)
					})
					name := fmt.Sprintf("(%d,%d,%d) tiles %+v workers=%d", n, k, p, tl, w)
					bitEqual(t, "S·b "+name, gotMul, wantMul)
					bitEqual(t, "Sᵀ·b "+name, gotTMul, wantTMul)
				}
				parallel.SetWorkers(1)
			}
		}
	})
}

// TestRowPanelsCountAsTheirProducts: every product of a MulRowPanels call
// counts once, on the engine MulInto would have run for its full shape,
// with that product's tiles by kind; a dst of the wrong shape or overlapping
// b panics.
func TestRowPanelsCountAsTheirProducts(t *testing.T) {
	defer telemetry.SetEnabled(telemetry.SetEnabled(true))
	read := func() [4]uint64 {
		return [4]uint64{telGEMMNaive.Value(), telGEMMBlocked.Value(), telTilesFull.Value(), telTilesEdge.Value()}
	}
	fill := func(_ int, panels [][]float64) {
		for _, sp := range panels {
			clear(sp)
		}
	}
	for _, sh := range rowPanelShapes {
		n, k, p := sh[0], sh[1], sh[2]
		s, b := New(n, k), New(k, p)
		before := read()
		MulInto(New(n, p), s, b)
		MulInto(New(n, p), s, b)
		want := read()
		MulRowPanels([]*Dense{New(n, p), New(n, p)}, b, fill)
		after := read()
		for i := range after {
			if after[i]-want[i] != want[i]-before[i] {
				t.Fatalf("(%d,%d,%d): two row-panel products moved the counters (naive, blocked, full, edge) by %v, two MulInto by %v",
					n, k, p, [4]uint64{after[0] - want[0], after[1] - want[1], after[2] - want[2], after[3] - want[3]},
					[4]uint64{want[0] - before[0], want[1] - before[1], want[2] - before[2], want[3] - before[3]})
			}
		}
	}
	b := New(6, 3)
	for name, fn := range map[string]func(){
		"dst shape":   func() { MulRowPanels([]*Dense{New(5, 3), New(4, 3)}, b, fill) },
		"dst width":   func() { MulRowPanels([]*Dense{New(5, 2)}, b, fill) },
		"dst aliases": func() { MulRowPanels([]*Dense{FromSlice(6, 3, b.Data)}, b, fill) },
		"dsts overlap": func() {
			d := New(6, 3)
			MulRowPanels([]*Dense{d, FromSlice(6, 3, d.Data)}, b, fill)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: accepted", name)
				}
			}()
			fn()
		}()
	}
	MulRowPanels(nil, b, fill) // no products, nothing to do
}

// TestPropertyTilingMCNCKeepBits: MC and NC only cut the work into panels,
// so any MC and NC leave every bit of every blocked product form at a fixed
// KC — KC alone partitions the shared dimension, and with it the sums (see
// SetTiling). Held at the default KC and at one below the shared dimension,
// at workers 1 and 3, on the scalar kernel too.
func TestPropertyTilingMCNCKeepBits(t *testing.T) {
	withScalarKernel(t, func(t *testing.T) {
		defer SetTiling(SetTiling(DefaultTiling()))
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		rng := rand.New(rand.NewSource(64))
		forms := []struct {
			name string
			run  func(a, b *Dense) *Dense
		}{
			{"Mul", func(a, b *Dense) *Dense { out := New(a.Rows, b.Cols); blockedMulInto(out, a, b); return out }},
			{"MulT", func(a, b *Dense) *Dense { return MulT(a, Transpose(b)) }},
			{"TMul", func(a, b *Dense) *Dense { return TMul(Transpose(a), b) }},
		}
		for _, sh := range [][3]int{{64, 300, 16}, {281, 281, 7}, {67, 301, 13}} {
			a, b := New(sh[0], sh[1]), New(sh[1], sh[2])
			randContents(a, rng)
			randContents(b, rng)
			for _, kc := range []int{DefaultTiling().KC, 67} {
				for _, f := range forms {
					SetTiling(Tiling{KC: kc})
					want := f.run(a, b)
					for _, mcnc := range [][2]int{{4, 4}, {8, 20}, {12, 8}, {100, 36}, {512, 512}} {
						SetTiling(Tiling{MC: mcnc[0], KC: kc, NC: mcnc[1]})
						for _, w := range []int{1, 3} {
							parallel.SetWorkers(w)
							bitEqual(t, fmt.Sprintf("%s %v KC=%d MC,NC=%v workers=%d", f.name, sh, kc, mcnc, w), f.run(a, b), want)
						}
						parallel.SetWorkers(1)
					}
				}
			}
		}
	})
}

// decodeSignSplit reads a fuzz input as n (at most 64), β, the scale's
// orientation and the operands' and scale's values: data[0..2] are the
// header, the value bytes past it decode as in decodeSmallGEMM.
func decodeSignSplit(data []byte) (beta float64, pt, g *Dense, scale []float64, byCol bool) {
	hdr := make([]byte, 3)
	copy(hdr, data)
	vals := data[min(len(data), 3):]
	n := int(hdr[0]) % 65
	next := 0
	value := func() float64 {
		c := byte(next * 37)
		if len(vals) > 0 {
			c ^= vals[next%len(vals)]
		}
		next++
		if int(c) < len(fuzzValues) {
			return fuzzValues[c]
		}
		return (float64(c) - 136) / 8
	}
	beta = (float64(hdr[1]) - 64) / 64
	if int(hdr[1]) < len(fuzzValues) {
		beta = fuzzValues[hdr[1]]
	}
	pt, g, scale = New(n, n), New(n, n), make([]float64, n)
	for _, m := range [][]float64{pt.Data, g.Data, scale} {
		for i := range m {
			m[i] = value()
		}
	}
	return beta, pt, g, scale, hdr[2]&1 == 1
}

// FuzzSignSplitEquivalence holds the vector split kernel to its scalar twin
// on fuzzed stripes: any n up to 64, any β (non-finite included), either
// scale orientation, and operands and scales drawn from zeros, subnormals,
// overflowing magnitudes, ±Inf and NaN. The seed corpus is in
// testdata/fuzz/FuzzSignSplitEquivalence.
func FuzzSignSplitEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useSIMD {
			t.Skip("no AVX2: the scalar loop is the only split kernel")
		}
		beta, pt, g, scale, byCol := decodeSignSplit(data)
		useSIMD = false
		wantPos, wantNeg := splitHalves(t, beta, pt, g, scale, byCol)
		useSIMD = true
		pos, neg := splitHalves(t, beta, pt, g, scale, byCol)
		name := fmt.Sprintf("n=%d β=%v column scale %v", pt.Rows, beta, byCol)
		halvesEqual(t, name+" pos", pos, wantPos)
		halvesEqual(t, name+" neg", neg, wantNeg)
	})
}
