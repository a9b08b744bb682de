//go:build !amd64

package matrix

// useSIMD is always false off amd64: the blocked engine runs on the portable
// scalar micro-kernel.
var useSIMD = false

// microKernelAVX is never called when useSIMD is false.
func microKernelAVX(dst *float64, stride, kw int, ap, bp *float64) {
	panic("matrix: SIMD micro-kernel unavailable on this architecture")
}

// microKernelEdgeAVX is never called when useSIMD is false.
func microKernelEdgeAVX(tile *[mr * nr]float64, kw int, ap, bp *float64) {
	panic("matrix: SIMD micro-kernel unavailable on this architecture")
}
