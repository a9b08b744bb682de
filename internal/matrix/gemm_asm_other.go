//go:build !amd64

package matrix

// useSIMD is always false off amd64: the blocked engine runs on the portable
// scalar micro-kernel and the naive kernels on their scalar loops.
var useSIMD = false

// microKernelAVX is never called when useSIMD is false.
func microKernelAVX(dst *float64, stride, kw int, ap, bp *float64) {
	panic("matrix: SIMD micro-kernel unavailable on this architecture")
}

// microKernel2AVX is never called when useSIMD is false.
func microKernel2AVX(dst *float64, stride, kw int, ap, bp *float64) {
	panic("matrix: SIMD micro-kernel unavailable on this architecture")
}

// microKernelEdgeAVX is never called when useSIMD is false.
func microKernelEdgeAVX(tile *[mr * nr]float64, kw int, ap, bp *float64) {
	panic("matrix: SIMD micro-kernel unavailable on this architecture")
}

// groupKernelAVX is never called when useSIMD is false.
func groupKernelAVX(dst, a *float64, rowStride, stepStride int, b *float64, k, p int, skipZero bool) {
	panic("matrix: SIMD group kernel unavailable on this architecture")
}

// signSplitAVX is never called when useSIMD is false.
func signSplitAVX(pos, neg, pt, gm *float64, stride, groups int, beta, rest float64, scale *float64, scaleRow, scaleStep int) {
	panic("matrix: SIMD split kernel unavailable on this architecture")
}
