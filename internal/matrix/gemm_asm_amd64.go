//go:build amd64

package matrix

// hasAVX2FMA reports whether the CPU and OS support the AVX2+FMA micro-kernel
// (implemented in gemm_amd64.s).
func hasAVX2FMA() bool

// microKernelAVX is the 4x4 AVX2+FMA tile kernel (gemm_amd64.s): it adds the
// tile partial sum into all 16 dst cells, so it serves full tiles
// (vr == mr, vc == nr) only, and only when useSIMD is true.
//
//go:noescape
func microKernelAVX(dst *float64, stride, kw int, ap, bp *float64)

// microKernel2AVX is microKernelAVX for two adjacent full tiles of one row
// panel (gemm_amd64.s): bp is the first tile's B micro-panel, the second
// follows it, and dst's columns 4..7 are the second tile. Each of the 32
// cells gets microKernelAVX's fused chain bit for bit. Only when useSIMD is
// true.
//
//go:noescape
func microKernel2AVX(dst *float64, stride, kw int, ap, bp *float64)

// microKernelEdgeAVX is the AVX tile kernel for partial tiles
// (gemm_amd64.s): it overwrites tile with the whole 4x4 partial sum, computed
// with a rounded multiply and a separate add per step — the portable
// microKernel's arithmetic, not the fused one of microKernelAVX. The caller
// adds the valid corner to dst. Only when useSIMD is true.
//
//go:noescape
func microKernelEdgeAVX(tile *[mr * nr]float64, kw int, ap, bp *float64)

// groupKernelAVX is the naive kernels' vector body (gemm_amd64.s): it
// overwrites four p-wide dst rows with the product of the 4 x k block of A
// at a, element (r, s) at a[r*rowStride + s*stepStride], and the row-major
// k x p matrix b, each element summed exactly as the scalar loops sum it.
// With skipZero an exact-zero A value contributes nothing, as the scalar
// loops' skip does. Needs k >= 1, p >= 1; only when useSIMD is true.
//
//go:noescape
func groupKernelAVX(dst, a *float64, rowStride, stepStride int, b *float64, k, p int, skipZero bool)

// signSplitAVX is SignSplit's vector body (gemm_amd64.s): groups 4-column
// groups of a full 4-row stripe, element for element the scalar twin's
// arithmetic and sign rule, written transposed into the row panels pos and
// neg. pt and gm address the stripe's first row, stride values apart; row r's
// scale factors of a group are at scale + r·scaleRow bytes and the table
// steps scaleStep bytes per group. Only when useSIMD is true.
//
//go:noescape
func signSplitAVX(pos, neg, pt, gm *float64, stride, groups int, beta, rest float64, scale *float64, scaleRow, scaleStep int)

// useSIMD gates the assembly micro-kernels. Detected once at start-up;
// overridable in tests to exercise the scalar path on SIMD machines.
var useSIMD = hasAVX2FMA()
