// AVX2 micro-kernels for the blocked GEMM engine (see gemm.go). Both compute
// a whole 4x4 tile from the zero-padded packed panels, each element
// accumulating its partial sum in ascending shared-dimension order, so the
// summation order matches the portable kernel and is independent of the
// worker count. They differ in the rounding of one step, and which tiles take
// which is a pure function of the product's shape:
//
//   - microKernelAVX, full tiles: one fused multiply-add per step
//     (VFMADD231PD), added straight into dst.
//   - microKernelEdgeAVX, partial tiles (fewer than 4 valid rows or
//     columns): a multiply rounded to float64, then an add (VMULPD, VADDPD) —
//     the arithmetic of the portable microKernel, bit for bit — written to a
//     caller-owned 16-float tile from which Go adds the valid corner to dst.

#include "textflag.h"

// func hasAVX2FMA() bool
//
// CPUID.1:ECX must report FMA, OSXSAVE and AVX; XCR0 must have the SSE and
// AVX state bits enabled by the OS; CPUID.(7,0):EBX must report AVX2.
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, SI
	ANDL $(1<<12 | 1<<27 | 1<<28), SI
	CMPL SI, $(1<<12 | 1<<27 | 1<<28)
	JNE  no

	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func microKernelAVX(dst *float64, stride, kw int, ap, bp *float64)
//
// Accumulates the 4x4 tile partial sum over kw shared-dimension steps from
// mr-interleaved packed A (ap) and nr-interleaved packed B (bp) into dst,
// where dst[r*stride+c] addresses tile cell (r, c). Y0..Y3 hold one output
// row each; per step: one 4-wide load of B, four broadcasts of A and four
// VFMADD231PD.
TEXT ·microKernelAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), SI
	MOVQ kw+16(FP), CX
	MOVQ ap+24(FP), R8
	MOVQ bp+32(FP), R9

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD      (R9), Y4
	VBROADCASTSD (R8), Y5
	VFMADD231PD  Y4, Y5, Y0
	VBROADCASTSD 8(R8), Y5
	VFMADD231PD  Y4, Y5, Y1
	VBROADCASTSD 16(R8), Y5
	VFMADD231PD  Y4, Y5, Y2
	VBROADCASTSD 24(R8), Y5
	VFMADD231PD  Y4, Y5, Y3
	ADDQ         $32, R8
	ADDQ         $32, R9
	DECQ         CX
	JNZ          loop

store:
	SHLQ    $3, SI
	VMOVUPD (DI), Y4
	VADDPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y4
	VADDPD  Y1, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y4
	VADDPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)
	VZEROUPPER
	RET

// func microKernelEdgeAVX(tile *[16]float64, kw int, ap, bp *float64)
//
// Overwrites tile (row-major 4x4) with the tile partial sum over kw
// shared-dimension steps. Same loads and broadcasts as microKernelAVX; the
// product is rounded (VMULPD) before it is accumulated (VADDPD), never fused.
TEXT ·microKernelEdgeAVX(SB), NOSPLIT, $0-32
	MOVQ tile+0(FP), DI
	MOVQ kw+8(FP), CX
	MOVQ ap+16(FP), R8
	MOVQ bp+24(FP), R9

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    edgestore

edgeloop:
	VMOVUPD      (R9), Y4
	VBROADCASTSD (R8), Y5
	VMULPD       Y4, Y5, Y6
	VADDPD       Y6, Y0, Y0
	VBROADCASTSD 8(R8), Y7
	VMULPD       Y4, Y7, Y8
	VADDPD       Y8, Y1, Y1
	VBROADCASTSD 16(R8), Y9
	VMULPD       Y4, Y9, Y10
	VADDPD       Y10, Y2, Y2
	VBROADCASTSD 24(R8), Y11
	VMULPD       Y4, Y11, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $32, R8
	ADDQ         $32, R9
	DECQ         CX
	JNZ          edgeloop

edgestore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
