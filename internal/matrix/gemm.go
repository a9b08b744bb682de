// Blocked GEMM engine. Dense matrix products above a flop cutover run on a
// cache-tiled, pool-aware path: B is packed one KC x NC panel at a time into
// an nr-interleaved scratch buffer, each worker packs MC x KC panels of A
// into an mr-interleaved buffer, and an mr x nr register-blocked micro-kernel
// accumulates tile partial sums. Work is distributed over output rows with
// parallel.ForGrain, so every dst row is written by exactly one worker block
// and the per-element accumulation order (KC tiles ascending, then the
// shared dimension ascending within a tile) is a pure function of the shape
// and KC — results are bit-identical for every worker count and every MC and
// NC, exactly the contract the naive kernels already satisfy. KC does move
// bits: it decides where each sum is cut into partial sums, and the pinned
// digests assume the default.
//
// Products below the cutover keep the naive kernels: for small operands the
// packing traffic costs more than the cache misses it avoids. On amd64 with
// AVX2 their whole 4-row groups run one masked vector kernel
// (groupKernelAVX) that performs each dst element's scalar operations — a
// rounded product, then an add, from +0 in ascending order — in vector
// lanes, so a naive product has the same bits on every machine.
//
// A left operand that is never materialised — AdaFGL's signed operator,
// built four rows at a time — is multiplied stripe by stripe: MulRowPanels
// takes each 4-row stripe in the layout packA writes for one micro-panel
// and runs the row panel's tiles (rowPanelTiles, blockedGEMM's own inner
// loop) or, below the cutover, the naive kernel's rows, so the result is
// MulInto's bit for bit.
//
// A left operand that is constant across many products — a leaf layer's
// input, multiplied by a new weight every epoch — can be handed to the engine
// packed: PackMul / PackTMul pack A (or Aᵀ) once at full depth in the same
// mr-interleaved layout packA writes, panel g at g·k·mr and element (kk, r)
// at kk·mr + r, so a KC slice is the offset kc·mr into a panel and the layout
// does not depend on the tiling. The engine then reads those panels where it
// would have called packA; the micro-kernels see the same values in the same
// order, so (*Packed).MulInto is Mul's (or TMul's) result bit for bit. A pack
// is bound to its product width, knows which kernel Mul would have picked,
// and below the cutover keeps A itself for the naive kernel instead.
//
// On amd64 with AVX2+FMA every tile runs a vector kernel (gemm_amd64.s), and
// which rounding a dst element gets is a pure function of the product's shape
// (n mod 4, p mod 4), never of workers or tile sizes. Full 4x4 tiles fuse each
// step (VFMADD231PD, one rounding); two full tiles side by side in a row panel
// run as one pair that shares the A broadcasts across eight independent
// chains, each of them the single tile's chain. Partial tiles — the last tile
// row when n is not a multiple of 4, the last tile column when p is not,
// which with C = 7 classes is half of all tiles in training — multiply,
// round, then add (VMULPD, VADDPD): that is what the portable microKernel
// computes, which served those tiles before they had a vector kernel, so
// recorded results did not move when they got one. The portable kernel is the
// whole engine elsewhere (useSIMD false) and the reference the edge kernel is
// tested against bit for bit.
//
// The two paths agree to 1e-12 on finite inputs (enforced by the property
// suite). Non-finite operands are outside that contract: the naive kernels
// skip exact-zero A terms, a semantic of theirs that the vector kernel
// reproduces with a lane mask, so 0·Inf contributes nothing there but NaN on
// the blocked path.
package matrix

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/parallel"
)

// mr x nr is the register tile of the micro-kernel: 16 independent
// accumulator chains, enough ILP to keep a scalar FPU busy without spilling.
// It is also the naive kernels' vector row group and column group.
const (
	mr = 4
	nr = 4
)

// BlockedCutover is the multiply-add count (rows x inner x cols) at and
// above which Mul, MulInto, MulT, MulTInto and TMul take the blocked engine;
// smaller products stay on the naive kernels.
const BlockedCutover = 1 << 18

// Tiling holds the blocked-GEMM tile sizes, all in elements:
//
//	MC — rows of A packed per panel by each worker (L2-resident with KC)
//	KC — shared-dimension depth of the A and B panels
//	NC — columns of B packed per panel (B panel is KC x NC, L2-resident)
type Tiling struct {
	MC, KC, NC int
}

// DefaultTiling returns the default tile sizes: an A panel of 64x256 (128 KiB)
// and a B panel of 256x128 (256 KiB), sized for common L2 caches while the
// 4-row dst stripe stays in L1.
func DefaultTiling() Tiling { return Tiling{MC: 64, KC: 256, NC: 128} }

// currentTiling holds the process-wide Tiling; nil means DefaultTiling().
var currentTiling atomic.Pointer[Tiling]

// SetTiling sets the process-wide blocked-GEMM tile sizes and returns the
// previous value so callers can restore it. Fields <= 0 fall back to the
// default; MC and NC are rounded up to multiples of the micro-kernel tile.
// MC and NC affect only performance. KC is where the shared dimension is cut
// into slices whose partial sums are added in order, so it moves bits: a
// product's result is a pure function of its shape and KC (a 64x300·300x16
// Mul of random operands differs in most of its 1024 elements between
// KC = 256 and KC = 64), and pinned digests assume the default KC.
func SetTiling(t Tiling) Tiling {
	prev := CurrentTiling()
	d := DefaultTiling()
	if t.MC <= 0 {
		t.MC = d.MC
	}
	if t.KC <= 0 {
		t.KC = d.KC
	}
	if t.NC <= 0 {
		t.NC = d.NC
	}
	t.MC = roundUp(t.MC, mr)
	t.NC = roundUp(t.NC, nr)
	currentTiling.Store(&t)
	return prev
}

// CurrentTiling returns the tile sizes the blocked engine is using.
func CurrentTiling() Tiling {
	if t := currentTiling.Load(); t != nil {
		return *t
	}
	return DefaultTiling()
}

// Mul returns a*b (matrix product).
func Mul(a, b *Dense) *Dense {
	shapeCheck(a.Cols == b.Rows, "Mul", a, b)
	out := New(a.Rows, b.Cols)
	if gemmFlops(a.Rows, a.Cols, b.Cols) >= BlockedCutover {
		blockedGEMM(out, lhsOf(a, false), b, false)
		return out
	}
	naiveMulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b. dst must be a.Rows x b.Cols and must not
// overlap a or b (it panics if it does).
func MulInto(dst, a, b *Dense) {
	shapeCheck(a.Cols == b.Rows, "MulInto", a, b)
	dstCheck("MulInto", dst, a.Rows, b.Cols)
	noAlias("MulInto", dst, a, b)
	if gemmFlops(a.Rows, a.Cols, b.Cols) >= BlockedCutover {
		blockedMulInto(dst, a, b)
		return
	}
	naiveMulInto(dst, a, b)
}

// MulT returns a * bᵀ, useful for similarity matrices H·Hᵀ. Above the
// cutover the blocked engine packs B panels straight from b's strided
// layout — no transposed temporary is materialised.
func MulT(a, b *Dense) *Dense {
	shapeCheck(a.Cols == b.Cols, "MulT", a, b)
	out := New(a.Rows, b.Rows)
	if gemmFlops(a.Rows, a.Cols, b.Rows) >= BlockedCutover {
		blockedGEMM(out, lhsOf(a, false), b, true)
		return out
	}
	naiveMulTInto(out, a, b)
	return out
}

// MulTInto computes dst = a * bᵀ into a caller-owned matrix, for loops that
// form the same-shaped product every step (AdaFGL Step 2's Gram matrix). dst
// must be a.Rows x b.Rows and must not overlap a or b (it panics if it does).
// The bits are MulT's.
func MulTInto(dst, a, b *Dense) {
	shapeCheck(a.Cols == b.Cols, "MulTInto", a, b)
	dstCheck("MulTInto", dst, a.Rows, b.Rows)
	noAlias("MulTInto", dst, a, b)
	if gemmFlops(a.Rows, a.Cols, b.Rows) >= BlockedCutover {
		dst.Zero()
		blockedGEMM(dst, lhsOf(a, false), b, true)
		return
	}
	naiveMulTInto(dst, a, b)
}

// TMul returns aᵀ * b, the workhorse of dense gradient computation. Above
// the cutover the blocked engine packs A panels straight from a's strided
// layout — no transposed temporary is materialised.
func TMul(a, b *Dense) *Dense {
	shapeCheck(a.Rows == b.Rows, "TMul", a, b)
	out := New(a.Cols, b.Cols)
	if gemmFlops(a.Cols, a.Rows, b.Cols) >= BlockedCutover {
		blockedGEMM(out, lhsOf(a, true), b, false)
		return out
	}
	naiveTMulInto(out, a, b)
	return out
}

// TMulInto computes dst = aᵀ * b into a caller-owned matrix. dst must be
// a.Cols x b.Cols and must not overlap a or b (it panics if it does). The
// bits are TMul's.
func TMulInto(dst, a, b *Dense) {
	shapeCheck(a.Rows == b.Rows, "TMulInto", a, b)
	dstCheck("TMulInto", dst, a.Cols, b.Cols)
	noAlias("TMulInto", dst, a, b)
	if gemmFlops(a.Cols, a.Rows, b.Cols) >= BlockedCutover {
		dst.Zero()
		blockedGEMM(dst, lhsOf(a, true), b, false)
		return
	}
	naiveTMulInto(dst, a, b)
}

// Packed is a constant left operand packed once for every product of one
// width: A of A·B (PackMul) or Aᵀ of Aᵀ·B (PackTMul), for any B with the
// width it was packed for. Above BlockedCutover it holds only the blocked
// engine's full-depth panels — no row-major copy — and below it holds A
// itself for the naive kernel, so MulInto computes exactly what Mul (or
// TMul) computes from A, on the kernel they would pick. The panels are a
// copy: writes into A after packing are not seen by an above-cutover pack,
// so a caller must treat A as immutable once packed.
type Packed struct {
	rows, depth, width int
	trans              bool
	a                  *Dense    // below the cutover: A, read by the naive kernel
	panels             []float64 // above it: every mr-row panel of op(A), full depth
}

// PackMul packs a as the left operand of a·B for every B with p columns.
func PackMul(a *Dense, p int) *Packed { return pack(a, false, p) }

// PackTMul packs a as the left operand of aᵀ·B for every B with p columns.
func PackTMul(a *Dense, p int) *Packed { return pack(a, true, p) }

func pack(a *Dense, t bool, p int) *Packed {
	n, k := a.Rows, a.Cols
	if t {
		n, k = k, n
	}
	pk := &Packed{rows: n, depth: k, width: p, trans: t}
	if gemmFlops(n, k, p) < BlockedCutover {
		pk.a = a
		return pk
	}
	pk.panels = make([]float64, roundUp(n, mr)*k)
	packA(pk.panels, a, t, 0, n, roundUp(n, mr), 0, k)
	return pk
}

// Rows returns the row count of the products pk takes part in: a.Rows for
// PackMul, a.Cols for PackTMul.
func (pk *Packed) Rows() int { return pk.rows }

// MulInto computes dst = op(A)·b, where op(A) is A (PackMul) or Aᵀ
// (PackTMul), bit for bit what Mul(A, b) or TMul(A, b) returns. b must have
// the width pk was packed for, dst must be pk.Rows() x that width, and dst
// must not overlap b or A (it panics if it does).
func (pk *Packed) MulInto(dst, b *Dense) {
	if b.Rows != pk.depth || b.Cols != pk.width {
		panic(fmt.Sprintf("matrix: Packed.MulInto operand %dx%d, packed for %dx%d", b.Rows, b.Cols, pk.depth, pk.width))
	}
	dstCheck("Packed.MulInto", dst, pk.rows, pk.width)
	noAlias("Packed.MulInto", dst, b, pk.a)
	switch {
	case pk.panels != nil:
		dst.Zero()
		blockedGEMM(dst, lhs{panels: pk.panels, n: pk.rows, k: pk.depth}, b, false)
	case pk.trans:
		naiveTMulInto(dst, pk.a, b)
	default:
		naiveMulInto(dst, pk.a, b)
	}
}

// dstCheck panics unless dst is rows x cols.
func dstCheck(op string, dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("matrix: %s dst %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// noAlias panics when dst's elements share memory with a's or b's (either
// may be nil). A product reads its operands after it has started writing
// dst, so an overlap would silently return a wrong answer (MulInto(a, a, I)
// would zero a before reading it).
func noAlias(op string, dst, a, b *Dense) {
	for _, m := range [2]*Dense{a, b} {
		if m != nil && overlaps(dst.Data, m.Data) {
			panic(fmt.Sprintf("matrix: %s dst overlaps an operand", op))
		}
	}
}

// overlaps reports whether x and y share at least one element of memory.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0, x1 := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&x[len(x)-1]))
	y0, y1 := uintptr(unsafe.Pointer(&y[0])), uintptr(unsafe.Pointer(&y[len(y)-1]))
	return x0 <= y1 && y0 <= x1
}

// MulNaive computes a*b on the naive kernel regardless of size. It is the
// reference implementation the property/equivalence harness and the
// BenchmarkGEMM sweep compare the blocked engine against.
func MulNaive(a, b *Dense) *Dense {
	shapeCheck(a.Cols == b.Rows, "MulNaive", a, b)
	out := New(a.Rows, b.Cols)
	naiveMulInto(out, a, b)
	return out
}

// gemmFlops estimates a product's multiply-add count for cutover and
// work-gate decisions.
func gemmFlops(n, k, p int) int { return n * k * p }

// ---- Naive kernels (reference path, small operands) ----

// The naive kernels sum every dst element over the shared dimension in
// ascending order, each term a product rounded to float64 and then added
// (the explicit float64 conversions forbid the compiler to fuse them), from
// +0. On SIMD machines whole 4-row groups of a worker block run
// groupKernelAVX, which performs those same operations in vector lanes, and
// the fewer than four rows left over run the scalar loop: a row's bits do not
// depend on which of the two computed it, so results stay the same for every
// worker count and on machines without SIMD.

// vectorRows runs groupKernelAVX over the whole 4-row groups of dst rows
// [lo, hi) and returns the first row it left to the scalar loop. Row i of
// op(A) starts at a[i*rowStride] and steps by stepStride; b is row-major
// k x p with k*p == len(b).
func vectorRows(dst []float64, p, lo, hi int, a []float64, rowStride, stepStride int, b []float64, k int, skipZero bool) int {
	if !useSIMD || len(b) == 0 {
		return lo
	}
	for ; lo+mr <= hi; lo += mr {
		groupKernelAVX(&dst[lo*p], &a[lo*rowStride], rowStride, stepStride, &b[0], k, p, skipZero)
	}
	return lo
}

// naiveMulInto is the unblocked i-k-j product: streams b and dst rows for
// locality; row blocks write disjoint dst rows, so the parallel path is
// exact. An exact-zero A term is skipped — 0·Inf and 0·NaN in b contribute
// nothing — and the group kernel reproduces the skip with a lane mask.
func naiveMulInto(dst, a, b *Dense) {
	telGEMMNaive.Inc()
	n, k, p := a.Rows, a.Cols, b.Cols
	parallel.ForWork(n, gemmFlops(n, k, p), func(lo, hi int) {
		lo = vectorRows(dst.Data, p, lo, hi, a.Data, k, 1, b.Data, k, true)
		for i := lo; i < hi; i++ {
			naiveRow(dst.Data[i*p:(i+1)*p], a.Data[i*k:(i+1)*k], 1, b)
		}
	})
}

// naiveRow overwrites drow with the product of one row of A — its element
// kk at a[kk*step] — and b: the scalar loop of naiveMulInto, ascending kk,
// every term a rounded product added from +0, exact-zero A terms skipped.
func naiveRow(drow, a []float64, step int, b *Dense) {
	clear(drow)
	for kk := 0; kk < b.Rows; kk++ {
		av := a[kk*step]
		if av == 0 {
			continue
		}
		for j, bv := range b.Data[kk*b.Cols : (kk+1)*b.Cols] {
			drow[j] += float64(av * bv)
		}
	}
}

// naiveMulTInto computes dst = a * bᵀ by row dot products, four rows of b at
// a time: the four sums are independent chains, so the adds overlap instead
// of each waiting out the previous one's latency, and every chain still
// accumulates its own dot product in ascending order. Nothing is skipped.
// The group kernel runs it as a·(bᵀ) on a transposed copy of b from the pack
// buffer pool, with the zero mask off.
func naiveMulTInto(dst, a, b *Dense) {
	telGEMMNaive.Inc()
	n, k, p := a.Rows, a.Cols, b.Rows
	var bt []float64
	if useSIMD && n >= mr && k*p > 0 {
		buf := getPackBuffer(k * p)
		defer packBuffers.Put(buf)
		bt = *buf
		for j := 0; j < p; j++ {
			for t, v := range b.Data[j*k : (j+1)*k] {
				bt[t*p+j] = v
			}
		}
	}
	parallel.ForWork(n, gemmFlops(n, k, p), func(lo, hi int) {
		lo = vectorRows(dst.Data, p, lo, hi, a.Data, k, 1, bt, k, false)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := dst.Row(i)
			j := 0
			for ; j+4 <= b.Rows; j += 4 {
				// Reslicing to len(arow) (== b.Cols) drops the bounds checks below.
				b0, b1 := b.Row(j)[:len(arow)], b.Row(j + 1)[:len(arow)]
				b2, b3 := b.Row(j + 2)[:len(arow)], b.Row(j + 3)[:len(arow)]
				var s0, s1, s2, s3 float64
				for t, av := range arow {
					s0 += float64(av * b0[t])
					s1 += float64(av * b1[t])
					s2 += float64(av * b2[t])
					s3 += float64(av * b3[t])
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
			for ; j < b.Rows; j++ {
				brow := b.Row(j)
				var s float64
				for t, av := range arow {
					s += float64(av * brow[t])
				}
				orow[j] = s
			}
		}
	})
}

// naiveTMulInto computes dst = aᵀ * b. Parallelized over dst rows (a's
// columns): each block owns a disjoint stripe of dst, and for a fixed t the
// accumulation order over i is the same ascending order as the serial loop,
// keeping results exact. Exact-zero A terms are skipped as in naiveMulInto;
// the group kernel reads column t of a as row t of aᵀ (row stride 1, step
// stride a.Cols).
func naiveTMulInto(dst, a, b *Dense) {
	telGEMMNaive.Inc()
	p := b.Cols
	parallel.ForWork(a.Cols, gemmFlops(a.Cols, a.Rows, b.Cols), func(tlo, thi int) {
		tlo = vectorRows(dst.Data, p, tlo, thi, a.Data, 1, a.Cols, b.Data, a.Rows, true)
		if tlo == thi {
			return
		}
		clear(dst.Data[tlo*p : thi*p])
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			brow := b.Row(i)
			for t := tlo; t < thi; t++ {
				av := arow[t]
				if av == 0 {
					continue
				}
				orow := dst.Data[t*p : (t+1)*p]
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	})
}

// ---- Row-panel products ----

// MulRowPanels computes dst[q] = S_q·b for every q without ever holding an
// n x k operand S_q: fill writes rows [i0, i0+4) of every S_q into panels[q]
// in the blocked engine's row-panel layout — element (s, r), S_q[i0+r][s],
// at s·4 + r, with +0 in the rows past n — and those rows of every product
// are computed at once, while the stripe is in cache. i0 runs over the
// multiples of 4 below n, each exactly once; fill must write every element
// of its panels (4·k values each), which are per-worker scratch valid for
// that call only.
//
// The arithmetic is the one MulInto picks for the full n x k · k x p shape,
// so dst[q] holds MulInto(S_q, b) bit for bit (and, for a stripe of Sᵀ,
// TMulInto(S, b)): above BlockedCutover every KC slice of the CurrentTiling
// runs the tile kernels blockedGEMM runs, on b packed once for every product
// and stripe; below it each row is the naive kernel's ascending,
// zero-skipping sum, a whole stripe on the vector group kernel. Each dst
// must be n x b.Cols, n the first one's Rows, and must overlap neither b nor
// another dst (it panics if it does). Every product counts once in the GEMM
// counters, on the engine it emulates.
func MulRowPanels(dst []*Dense, b *Dense, fill func(i0 int, panels [][]float64)) {
	if len(dst) == 0 {
		return
	}
	n, k, p := dst[0].Rows, b.Rows, b.Cols
	for q, d := range dst {
		dstCheck("MulRowPanels", d, n, p)
		noAlias("MulRowPanels", d, b, nil)
		for _, e := range dst[:q] {
			noAlias("MulRowPanels", d, e, nil)
		}
	}
	blocked := gemmFlops(n, k, p) >= BlockedCutover
	kc := CurrentTiling().KC
	for range dst {
		if blocked {
			countBlocked(n, k, p, kc)
		} else {
			telGEMMNaive.Inc()
		}
	}
	if k == 0 {
		for _, d := range dst {
			d.Zero()
		}
		return
	}
	pR := roundUp(p, nr)
	var bp []float64
	if blocked {
		buf := getPackBuffer(k * pR)
		defer packBuffers.Put(buf)
		bp = *buf
		for k0 := 0; k0 < k; k0 += kc {
			packB(bp[k0*pR:], b, false, k0, min(kc, k-k0), 0, p, pR)
		}
	}
	parallel.ForWorkGrain(n, len(dst)*gemmFlops(n, k, p), mr, func(lo, hi int) {
		buf := getPackBuffer(len(dst) * mr * k)
		defer packBuffers.Put(buf)
		panels := make([][]float64, len(dst))
		for q := range panels {
			panels[q] = (*buf)[q*mr*k : (q+1)*mr*k]
		}
		for i0 := lo; i0 < hi; i0 += mr {
			vr := min(mr, n-i0)
			fill(i0, panels)
			for q, d := range dst {
				rows, sp := d.Data[i0*p:(i0+vr)*p], panels[q]
				switch {
				case blocked:
					clear(rows)
					for k0 := 0; k0 < k; k0 += kc {
						rowPanelTiles(rows, p, vr, p, min(kc, k-k0), sp[k0*mr:], bp[k0*pR:])
					}
				case useSIMD && vr == mr && p > 0:
					groupKernelAVX(&rows[0], &sp[0], 1, mr, &b.Data[0], k, p, true)
				default:
					for r := 0; r < vr; r++ {
						naiveRow(rows[r*p:(r+1)*p], sp[r:], mr, b)
					}
				}
			}
		}
	})
}

// ---- Blocked engine ----

// packBuffers recycles panel scratch across GEMM calls and worker blocks:
// packing buffers are the hottest allocation in training loops (one A panel
// per worker block per (jc,kc) pair) and would otherwise be steady GC churn.
var packBuffers = sync.Pool{New: func() any { return new([]float64) }}

// getPackBuffer returns a scratch slice of length n (zeroing not needed —
// packing overwrites every element it reads back).
func getPackBuffer(n int) *[]float64 {
	buf := packBuffers.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// blockedMulInto computes dst = a*b on the blocked engine whatever the size:
// MulInto's path above the cutover, and the entry the property suite drives
// directly.
func blockedMulInto(dst, a, b *Dense) {
	dst.Zero()
	blockedGEMM(dst, lhsOf(a, false), b, false)
}

// lhs is the left operand as the blocked engine reads it: a matrix it packs
// one MC x KC panel at a time (transposed when t is set), or — panels set —
// every mr-row panel of an n x k operand packed once at full depth by pack.
type lhs struct {
	a      *Dense
	t      bool
	panels []float64
	n, k   int // op(a) is n x k
}

// lhsOf hands a (aᵀ when t is set) to the engine unpacked.
func lhsOf(a *Dense, t bool) lhs {
	if t {
		return lhs{a: a, t: true, n: a.Cols, k: a.Rows}
	}
	return lhs{a: a, n: a.Rows, k: a.Cols}
}

// blockedGEMM accumulates op(a)·op(b) into dst with panel packing and the
// mr x nr micro-kernel; dst must arrive zeroed (a fresh New, or a reused
// buffer the caller cleared — never both), and op transposes the operand
// when its flag is set. An operand handed packed (a.panels) is read in
// place of packing it: its KC slice of the panel holding rows i0+ir is the
// same kw·mr values packA would have written. Loop structure (GotoBLAS
// order, NC/KC/rows):
//
//	for each NC-wide column panel of B:
//	  for each KC-deep slice:                       // ascending, serial
//	    pack B[kc, jc] once (shared, read-only)
//	    parallel over dst rows (mr-aligned blocks):
//	      for each MC-high row chunk: pack A[ic, kc] per worker
//	        micro-kernels accumulate dst tiles
//
// Each dst element receives its KC-tile partial sums in ascending kc order,
// and each tile's partial sum is accumulated in ascending shared-dimension
// order inside the micro-kernel, so the arithmetic is independent of the
// worker count. Transposition happens inside the packing routines — they
// read the operand with the appropriate stride — so no transposed temporary
// is ever materialised and the tile/micro-kernel structure (and with it the
// determinism contract) is identical for all four variants.
func blockedGEMM(dst *Dense, a lhs, b *Dense, bT bool) {
	n, k := a.n, a.k
	p := b.Cols
	if bT {
		p = b.Rows
	}
	if n == 0 || k == 0 || p == 0 {
		return
	}
	t := CurrentTiling()
	mc, kcT, ncT := t.MC, t.KC, t.NC
	countBlocked(n, k, p, kcT)
	bpBuf := getPackBuffer(min(kcT, k) * min(ncT, roundUp(p, nr)))
	defer packBuffers.Put(bpBuf)
	bp := *bpBuf
	for jc := 0; jc < p; jc += ncT {
		jw := min(ncT, p-jc)
		jwR := roundUp(jw, nr)
		for kc := 0; kc < k; kc += kcT {
			kw := min(kcT, k-kc)
			packB(bp, b, bT, kc, kw, jc, jw, jwR)
			parallel.ForWorkGrain(n, gemmFlops(n, kw, jw), mr, func(lo, hi int) {
				var ap []float64
				if a.panels == nil {
					apBuf := getPackBuffer(mc * kw)
					defer packBuffers.Put(apBuf)
					ap = *apBuf
				}
				for i0 := lo; i0 < hi; i0 += mc {
					iw := min(mc, hi-i0)
					iwR := roundUp(iw, mr)
					if a.panels == nil {
						packA(ap, a.a, a.t, i0, iw, iwR, kc, kw)
					}
					for ir := 0; ir < iwR; ir += mr {
						var apn []float64
						if a.panels != nil {
							apn = a.panels[((i0+ir)/mr)*k*mr+kc*mr:]
						} else {
							apn = ap[(ir/mr)*kw*mr:]
						}
						rowPanelTiles(dst.Data[(i0+ir)*p+jc:], p, min(mr, iw-ir), jw, kw, apn, bp)
					}
				}
			})
		}
	}
}

// rowPanelTiles accumulates one KC slice of a row panel into dst: the vr
// valid rows (of mr) of the packed A micro-panel ap times the jw columns of
// the packed B slice bp (micro-panel g at g·kw·nr), each tile on the kernel
// tileKernel picks, added into the cells dst[r*stride+c]. It is the
// per-row-panel loop of blockedGEMM and of MulRowPanels' blocked path.
func rowPanelTiles(dst []float64, stride, vr, jw, kw int, ap, bp []float64) {
	jwR := roundUp(jw, nr)
	for jr := 0; jr < jwR; jr += nr {
		vc := min(nr, jw-jr)
		bpn := bp[(jr/nr)*kw*nr:]
		d := dst[jr:]
		switch tileKernel(useSIMD, vr, vc, jw-jr-nr) {
		case tilePortable:
			microKernel(d, stride, vr, vc, kw, ap, bpn)
		case tilePairAVX:
			microKernel2AVX(&d[0], stride, kw, &ap[0], &bpn[0])
			jr += nr
		case tileFullAVX:
			microKernelAVX(&d[0], stride, kw, &ap[0], &bpn[0])
		case tileEdgeAVX:
			edgeTileAVX(d, stride, vr, vc, kw, ap, bpn)
		}
	}
}

// The kernels a vr x vc tile can run on.
const (
	tilePortable = iota // microKernel, any tile, machines without SIMD
	tilePairAVX         // microKernel2AVX, fused, a full tile and the full one after it
	tileFullAVX         // microKernelAVX, fused, full tiles
	tileEdgeAVX         // edgeTileAVX, multiply-then-add, partial tiles
)

// tileKernel picks the kernel of a vr x vc tile followed in its row panel by
// next valid columns (next <= 0 when it is the panel's last tile): on a SIMD
// machine every tile, full or partial, runs a vector kernel — a full tile
// followed by another full tile runs both as a pair, which the caller then
// steps over — and the portable microKernel is the fallback of machines
// without one, never a second path beside them.
func tileKernel(simd bool, vr, vc, next int) int {
	switch {
	case !simd:
		return tilePortable
	case vr == mr && vc == nr && next >= nr:
		return tilePairAVX
	case vr == mr && vc == nr:
		return tileFullAVX
	default:
		return tileEdgeAVX
	}
}

// edgeTileAVX is microKernel for a partial tile on SIMD machines: the packed
// panels are zero-padded to the full mr x nr tile, so the vector kernel
// computes all 16 partial sums into a stack tile and only the valid vr x vc
// corner is added to dst. The kernel multiplies and adds separately (never
// fused), so the result is microKernel's bit for bit.
func edgeTileAVX(dst []float64, stride, vr, vc, kw int, ap, bp []float64) {
	var tile [mr * nr]float64
	microKernelEdgeAVX(&tile, kw, &ap[0], &bp[0])
	for r := 0; r < vr; r++ {
		d := dst[r*stride : r*stride+vc]
		for c := range d {
			d[c] += tile[r*nr+c]
		}
	}
}

// packB copies the kw x jw logical panel of op(b) at (kc, jc) into bp as
// nr-wide micro-panels: micro-panel g (columns jc+g*nr ..) occupies
// bp[g*kw*nr :] with element (kk, c) at kk*nr+c, trailing columns
// zero-padded. The micro-kernel then streams contiguous nr-vectors per
// shared-dim step. With bT set, logical element (kk, j) is b[j][kk], read
// contiguously along kk per column.
func packB(bp []float64, b *Dense, bT bool, kc, kw, jc, jw, jwR int) {
	for g := 0; g < jwR/nr; g++ {
		off := g * kw * nr
		j0 := jc + g*nr
		w := min(nr, jw-g*nr)
		if bT {
			k := b.Cols
			for c := 0; c < w; c++ {
				src := b.Data[(j0+c)*k+kc : (j0+c)*k+kc+kw]
				for kk, v := range src {
					bp[off+kk*nr+c] = v
				}
			}
			for c := w; c < nr; c++ {
				for kk := 0; kk < kw; kk++ {
					bp[off+kk*nr+c] = 0
				}
			}
			continue
		}
		p := b.Cols
		for kk := 0; kk < kw; kk++ {
			src := b.Data[(kc+kk)*p+j0 : (kc+kk)*p+j0+w]
			d := bp[off+kk*nr : off+kk*nr+nr]
			copy(d, src)
			for c := w; c < nr; c++ {
				d[c] = 0
			}
		}
	}
}

// packA copies the iw x kw logical panel of op(a) at (i0, kc) into ap as
// mr-high micro-panels: micro-panel g (rows i0+g*mr ..) occupies
// ap[g*kw*mr :] with element (kk, r) at kk*mr+r, trailing rows zero-padded.
// Padded rows are computed by the micro-kernel but never stored. With aT
// set, logical row i0+r is column i0+r of a, read contiguously along r per
// shared-dim step.
func packA(ap []float64, a *Dense, aT bool, i0, iw, iwR, kc, kw int) {
	for g := 0; g < iwR/mr; g++ {
		off := g * kw * mr
		h := min(mr, iw-g*mr)
		if aT {
			n := a.Cols
			base := i0 + g*mr
			if h == mr {
				// Four loads and stores per step; a 32-byte copy() here is
				// a runtime.memmove call that costs more than the move.
				for kk := 0; kk < kw; kk++ {
					src := a.Data[(kc+kk)*n+base : (kc+kk)*n+base+mr]
					d := ap[off+kk*mr : off+kk*mr+mr]
					d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
				}
				continue
			}
			for kk := 0; kk < kw; kk++ {
				src := a.Data[(kc+kk)*n+base : (kc+kk)*n+base+h]
				d := ap[off+kk*mr : off+kk*mr+mr]
				for r := range d {
					if r < h {
						d[r] = src[r]
					} else {
						d[r] = 0
					}
				}
			}
			continue
		}
		k := a.Cols
		for r := 0; r < h; r++ {
			src := a.Data[(i0+g*mr+r)*k+kc : (i0+g*mr+r)*k+kc+kw]
			for kk, v := range src {
				ap[off+kk*mr+r] = v
			}
		}
		for r := h; r < mr; r++ {
			for kk := 0; kk < kw; kk++ {
				ap[off+kk*mr+r] = 0
			}
		}
	}
}

// microKernel accumulates an mr x nr tile partial sum over kw shared-dim
// steps from packed micro-panels ap (mr-interleaved) and bp (nr-interleaved)
// into dst, where dst[r*stride+c] addresses tile cell (r, c) and only the
// valid vr x vc region is stored. The 16 accumulators live in registers for
// the whole kw loop; terms are added in ascending kk order.
func microKernel(dst []float64, stride, vr, vc, kw int, ap, bp []float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	ap = ap[: kw*mr : kw*mr]
	bp = bp[: kw*nr : kw*nr]
	for kk := 0; kk < kw; kk++ {
		ao, bo := kk*mr, kk*nr
		a0, a1, a2, a3 := ap[ao], ap[ao+1], ap[ao+2], ap[ao+3]
		b0, b1, b2, b3 := bp[bo], bp[bo+1], bp[bo+2], bp[bo+3]
		c00 += float64(a0 * b0)
		c01 += float64(a0 * b1)
		c02 += float64(a0 * b2)
		c03 += float64(a0 * b3)
		c10 += float64(a1 * b0)
		c11 += float64(a1 * b1)
		c12 += float64(a1 * b2)
		c13 += float64(a1 * b3)
		c20 += float64(a2 * b0)
		c21 += float64(a2 * b1)
		c22 += float64(a2 * b2)
		c23 += float64(a2 * b3)
		c30 += float64(a3 * b0)
		c31 += float64(a3 * b1)
		c32 += float64(a3 * b2)
		c33 += float64(a3 * b3)
	}
	if vr == mr && vc == nr {
		d := dst[0:4]
		d[0] += c00
		d[1] += c01
		d[2] += c02
		d[3] += c03
		d = dst[stride : stride+4]
		d[0] += c10
		d[1] += c11
		d[2] += c12
		d[3] += c13
		d = dst[2*stride : 2*stride+4]
		d[0] += c20
		d[1] += c21
		d[2] += c22
		d[3] += c23
		d = dst[3*stride : 3*stride+4]
		d[0] += c30
		d[1] += c31
		d[2] += c32
		d[3] += c33
		return
	}
	cs := [mr][nr]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for r := 0; r < vr; r++ {
		d := dst[r*stride : r*stride+vc]
		for c := range d {
			d[c] += cs[r][c]
		}
	}
}

func roundUp(v, m int) int { return (v + m - 1) / m * m }
