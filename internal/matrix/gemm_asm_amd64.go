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

// microKernelEdgeAVX is the AVX tile kernel for partial tiles
// (gemm_amd64.s): it overwrites tile with the whole 4x4 partial sum, computed
// with a rounded multiply and a separate add per step — the portable
// microKernel's arithmetic, not the fused one of microKernelAVX. The caller
// adds the valid corner to dst. Only when useSIMD is true.
//
//go:noescape
func microKernelEdgeAVX(tile *[mr * nr]float64, kw int, ap, bp *float64)

// useSIMD gates the assembly micro-kernels. Detected once at start-up;
// overridable in tests to exercise the scalar path on SIMD machines.
var useSIMD = hasAVX2FMA()
