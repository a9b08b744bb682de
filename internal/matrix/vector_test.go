package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// indefiniteNaN is the NaN x86 generates (0·Inf, Inf−Inf). Operands use it
// as their NaN so every NaN a product can hold has the same bits, whichever
// operand's payload an instruction propagates — the operand order of a
// commutative scalar multiply or add is the compiler's choice, and no kernel
// contract covers payloads.
var indefiniteNaN = math.Float64frombits(0xfff8000000000000)

// naiveForm is one of the three sub-cutover products, taking the logical
// operands la (n x k) and lb (k x p) in the layout its kernel reads.
type naiveForm struct {
	name     string
	operands func(la, lb *Dense) (a, b *Dense)
	kernel   func(dst, a, b *Dense)
}

var naiveForms = []naiveForm{
	{"Mul", func(la, lb *Dense) (*Dense, *Dense) { return la, lb }, naiveMulInto},
	{"TMul", func(la, lb *Dense) (*Dense, *Dense) { return Transpose(la), lb }, naiveTMulInto},
	{"MulT", func(la, lb *Dense) (*Dense, *Dense) { return la, Transpose(lb) }, naiveMulTInto},
}

// vectorMatchesScalar runs form on la·lb with the group kernel at every
// worker count in workers and fails unless each result, written over a stale
// dst, holds the scalar loops' bits.
func vectorMatchesScalar(t *testing.T, name string, form naiveForm, la, lb *Dense, workers ...int) {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	a, b := form.operands(la, lb)
	n, p := la.Rows, lb.Cols
	want := New(n, p)
	want.Fill(99)
	useSIMD = false
	form.kernel(want, a, b)
	useSIMD = true
	for _, w := range workers {
		parallel.SetWorkers(w)
		got := New(n, p)
		got.Fill(math.Copysign(0, -1))
		form.kernel(got, a, b)
		bitEqual(t, fmt.Sprintf("%s workers=%d", name, w), got, want)
	}
}

// specialOperands draws logical operands la (n x k) and lb (k x p) whose A
// holds exact zeros, negative zeros and subnormals beside unit-scale values,
// and where about one step in four is dead: its A column is all ±0 and its B
// row holds ±Inf and NaN, which the skipping kernels must not see.
func specialOperands(rng *rand.Rand, n, k, p int) (la, lb *Dense) {
	la, lb = New(n, k), New(k, p)
	for kk := 0; kk < k; kk++ {
		dead := rng.Intn(4) == 0
		for i := 0; i < n; i++ {
			var v float64
			switch r := rng.Intn(6); {
			case r == 0 || dead && r < 3:
				v = 0
			case r == 1 || dead:
				v = math.Copysign(0, -1)
			case r == 2:
				v = math.Copysign(math.Float64frombits(uint64(1+rng.Int63n(1<<52-1))), rng.Float64()-0.5)
			default:
				v = rng.Float64()*2 - 1
			}
			la.Data[i*k+kk] = v
		}
		for j := 0; j < p; j++ {
			v := rng.Float64()*2 - 1
			if dead {
				v = [...]float64{math.Inf(1), math.Inf(-1), indefiniteNaN, v}[rng.Intn(4)]
			}
			lb.Data[kk*p+j] = v
		}
	}
	return la, lb
}

// TestPropertyVectorNaiveMatchesScalar is the contract that lets the naive
// kernels run on vector lanes without moving a pinned bit: for all three
// product forms, n and p of every residue mod 4 (full and masked column
// groups, whole and left-over row groups), k from 0 up, zeros, −0 and
// subnormals in A and non-finite B behind zero A, the group kernel leaves
// exactly the scalar loops' bits — at one worker, and at two and three, where
// n ≥ 128 splits the rows into blocks not aligned to 4.
func TestPropertyVectorNaiveMatchesScalar(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX2+FMA: the scalar loops are the only naive kernels")
	}
	rng := rand.New(rand.NewSource(53))
	for _, form := range naiveForms {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 128, 129, 130, 131} {
			for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 32} {
				for _, k := range []int{0, 1, 7, 32} {
					la, lb := specialOperands(rng, n, k, p)
					name := fmt.Sprintf("%s n=%d k=%d p=%d", form.name, n, k, p)
					vectorMatchesScalar(t, name, form, la, lb, 1, 2, 3)
				}
			}
		}
	}
}

// TestPropertyPairedTileMatchesSingle holds the paired full-tile kernel to
// the single one: at the kernel, microKernel2AVX leaves the bits of two
// microKernelAVX calls over adjacent B micro-panels (and touches no other
// cell); through the engine, every full-tile cell holds the single kernel's
// chain written out with math.FMA — pairs, odd last full tiles beside them
// (p = 12, 28, 36, and NC = 20 panels of five tiles) and edge tiles alike, at
// k past KC and at any worker count.
func TestPropertyPairedTileMatchesSingle(t *testing.T) {
	if !useSIMD {
		t.Skip("no AVX2+FMA: the portable kernel is the only tile kernel")
	}
	rng := rand.New(rand.NewSource(59))
	const stride = 11
	for _, kw := range []int{0, 1, 2, 7, 255, 256, 257} {
		ap, _ := packedPanels(rng, mr, nr, kw)
		bp0, _ := packedPanels(rng, mr, nr, kw)
		bp1, _ := packedPanels(rng, mr, nr, kw)
		bp := append(bp0[:kw*nr:kw*nr], bp1...)
		want := make([]float64, mr*stride)
		for i := range want {
			want[i] = rng.Float64()*2 - 1
		}
		got := append([]float64(nil), want...)
		microKernelAVX(&want[0], stride, kw, &ap[0], &bp[0])
		microKernelAVX(&want[nr], stride, kw, &ap[0], &bp[kw*nr])
		microKernel2AVX(&got[0], stride, kw, &ap[0], &bp[0])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("kw=%d: dst[%d] = %v, two single tiles %v", kw, i, got[i], want[i])
			}
		}
	}

	defer SetTiling(SetTiling(DefaultTiling()))
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	tilings := []Tiling{DefaultTiling(), {MC: 8, KC: 64, NC: 20}, {MC: 12, KC: 7, NC: 12}}
	for _, tl := range tilings {
		SetTiling(tl)
		for _, n := range []int{9, 36} {
			for _, p := range []int{8, 12, 28, 32, 36} {
				a, b := randDense(n, 300, int64(n+p)), randDense(300, p, int64(n*p))
				want := fusedReference(a, b, tl.KC)
				for _, w := range []int{1, 3} {
					parallel.SetWorkers(w)
					got := New(n, p)
					blockedMulInto(got, a, b)
					bitEqual(t, fmt.Sprintf("n=%d k=300 p=%d tiles %+v workers=%d", n, p, tl, w), got, want)
				}
			}
		}
	}
}

// fusedReference is what the SIMD blocked engine computes for a·b with
// KC-deep slices, cell by cell: per slice a chain from +0 over the slice's
// steps in ascending order, fused (math.FMA) in full 4x4 tiles and rounded
// multiply then add in partial ones, the slices' sums added into dst in
// ascending order.
func fusedReference(a, b *Dense, kc int) *Dense {
	n, k, p := a.Rows, a.Cols, b.Cols
	out := New(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			full := (i/mr+1)*mr <= n && (j/nr+1)*nr <= p
			var d float64
			for k0 := 0; k0 < k; k0 += kc {
				var acc float64
				for kk := k0; kk < min(k0+kc, k); kk++ {
					if full {
						acc = math.FMA(a.Data[i*k+kk], b.Data[kk*p+j], acc)
					} else {
						acc += float64(a.Data[i*k+kk] * b.Data[kk*p+j])
					}
				}
				d += acc
			}
			out.Data[i*p+j] = d
		}
	}
	return out
}

// fuzzValues is the alphabet a fuzzed byte below len(fuzzValues) decodes to:
// zeros of both signs, subnormals, magnitudes whose products overflow, ±Inf
// and NaN. Other bytes decode to small finite values.
var fuzzValues = [...]float64{
	0, math.Copysign(0, -1), 0, 1, -1, 0.1, 5e-324, -2.2250738585072e-308,
	1e308, -1e308, math.Inf(1), math.Inf(-1), indefiniteNaN, 3, -0.5, 1e-300,
}

// decodeSmallGEMM reads a fuzz input as a product form, n, k, p (each at
// most 64), a worker count of 1 to 3 and the operands' values: data[0..4] are
// the header, every value byte past it is a fuzzValues index or a small
// finite value, reused cyclically (mixed with the value's index) when the
// input is shorter than the operands.
func decodeSmallGEMM(data []byte) (form naiveForm, la, lb *Dense, workers int) {
	hdr := make([]byte, 5)
	copy(hdr, data)
	vals := data[min(len(data), 5):]
	n, k, p := int(hdr[1])%65, int(hdr[2])%65, int(hdr[3])%65
	next := 0
	fill := func(m *Dense) {
		for i := range m.Data {
			c := byte(next * 37)
			if len(vals) > 0 {
				c ^= vals[next%len(vals)]
			}
			next++
			if int(c) < len(fuzzValues) {
				m.Data[i] = fuzzValues[c]
			} else {
				m.Data[i] = (float64(c) - 136) / 8
			}
		}
	}
	la, lb = New(n, k), New(k, p)
	fill(la)
	fill(lb)
	return naiveForms[int(hdr[0])%len(naiveForms)], la, lb, 1 + int(hdr[4])%3
}

// FuzzSmallGEMMEquivalence holds the vector group kernel to the scalar
// naive loops bit for bit on fuzzed sub-cutover products: any form, any
// shape up to 64, any worker count of 1 to 3 and values drawn from zeros,
// subnormals, overflowing magnitudes, ±Inf and NaN. The seed corpus is in
// testdata/fuzz/FuzzSmallGEMMEquivalence.
func FuzzSmallGEMMEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useSIMD {
			t.Skip("no AVX2+FMA: the scalar loops are the only naive kernels")
		}
		form, la, lb, workers := decodeSmallGEMM(data)
		name := fmt.Sprintf("%s n=%d k=%d p=%d", form.name, la.Rows, la.Cols, lb.Cols)
		vectorMatchesScalar(t, name, form, la, lb, workers)
	})
}
