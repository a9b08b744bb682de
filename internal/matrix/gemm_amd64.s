// AVX2 kernels for the dense products (see gemm.go).
//
// The blocked engine's micro-kernels compute a whole 4x4 tile from the
// zero-padded packed panels, each element accumulating its partial sum in
// ascending shared-dimension order, so the summation order matches the
// portable kernel and is independent of the worker count. They differ in the
// rounding of one step, and which tiles take which is a pure function of the
// product's shape:
//
//   - microKernelAVX, full tiles: one fused multiply-add per step
//     (VFMADD231PD), added straight into dst. microKernel2AVX runs two
//     adjacent full tiles of a row panel with the same chains.
//   - microKernelEdgeAVX, partial tiles (fewer than 4 valid rows or
//     columns): a multiply rounded to float64, then an add (VMULPD, VADDPD) —
//     the arithmetic of the portable microKernel, bit for bit — written to a
//     caller-owned 16-float tile from which Go adds the valid corner to dst.
//
// groupKernelAVX is the naive kernels' body below the blocked cutover: four
// dst rows, one 4-column group at a time, read from A in place through two
// strides, with the scalar loops' rounded multiply and add.

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

// func microKernel2AVX(dst *float64, stride, kw int, ap, bp *float64)
//
// microKernelAVX for two adjacent full tiles of one row panel: the second B
// micro-panel starts kw*nr values after the first (bp), and dst's columns
// 4..7 are the second tile. Per step: two 4-wide loads of B, four broadcasts
// of A each shared by both tiles, eight VFMADD231PD on eight independent
// accumulators (Y0..Y3 the first tile's rows, Y4..Y7 the second's). Every
// chain is microKernelAVX's: start at +0, fuse one term per step in ascending
// order, then add into dst.
TEXT ·microKernel2AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), SI
	MOVQ kw+16(FP), CX
	MOVQ ap+24(FP), R8
	MOVQ bp+32(FP), R9
	MOVQ CX, R10
	SHLQ $5, R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    pairstore

pairloop:
	VMOVUPD      (R9), Y8
	VMOVUPD      (R9)(R10*1), Y9
	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y4
	VBROADCASTSD 8(R8), Y11
	VFMADD231PD  Y8, Y11, Y1
	VFMADD231PD  Y9, Y11, Y5
	VBROADCASTSD 16(R8), Y12
	VFMADD231PD  Y8, Y12, Y2
	VFMADD231PD  Y9, Y12, Y6
	VBROADCASTSD 24(R8), Y13
	VFMADD231PD  Y8, Y13, Y3
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $32, R8
	ADDQ         $32, R9
	DECQ         CX
	JNZ          pairloop

pairstore:
	SHLQ    $3, SI
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y4, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y8
	VADDPD  Y1, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y8
	VADDPD  Y2, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y6, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y8
	VADDPD  Y3, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y7, Y9, Y9
	VMOVUPD Y9, 32(DI)
	VZEROUPPER
	RET

// groupMask holds four all-ones lanes, then four zero lanes: the four lanes
// starting at groupMask+8*(4-rem) enable the first rem columns of a group.
DATA groupMask<>+0(SB)/8, $-1
DATA groupMask<>+8(SB)/8, $-1
DATA groupMask<>+16(SB)/8, $-1
DATA groupMask<>+24(SB)/8, $-1
DATA groupMask<>+32(SB)/8, $0
DATA groupMask<>+40(SB)/8, $0
DATA groupMask<>+48(SB)/8, $0
DATA groupMask<>+56(SB)/8, $0
GLOBL groupMask<>(SB), RODATA|NOPTR, $64

// One term of a dst row of the group kernel: broadcast the row's A value
// (addr), multiply it by the B segment in Y8, and add the rounded product
// into the row's accumulator. SKIPTERM also ANDs the product with an
// "A value != 0" lane mask (NEQ_UQ, so a NaN A value keeps its term), which
// turns the term of an exact-zero A value into +0 whatever B holds.
#define TERM(addr, prod, acc) \
	VBROADCASTSD addr, Y4; \
	VMULPD       Y8, Y4, prod; \
	VADDPD       prod, acc, acc

#define SKIPTERM(addr, prod, acc) \
	VBROADCASTSD addr, Y4; \
	VMULPD       Y8, Y4, prod; \
	VCMPPD       $4, Y15, Y4, Y4; \
	VANDPD       Y4, prod, prod; \
	VADDPD       prod, acc, acc

// The four terms of one step, then the step to the next A value and B row.
#define STEP(term) \
	term((AX), Y9, Y0); \
	term((AX)(R10*1), Y10, Y1); \
	term((AX)(R10*2), Y11, Y2); \
	term((AX)(R11*1), Y12, Y3); \
	ADDQ R12, AX; \
	ADDQ R13, DX

// func groupKernelAVX(dst, a *float64, rowStride, stepStride int, b *float64, k, p int, skipZero bool)
//
// Overwrites four rows of a p-wide row-major dst with the product of the
// 4 x k block of A at a — element (r, s) at a[r*rowStride + s*stepStride] —
// and the row-major k x p matrix b. Column group by group (four columns, the
// last one masked with VMASKMOVPD when p mod 4 != 0), Y0..Y3 hold the four
// rows' sums for the whole k loop: each starts at +0 and adds the rounded
// product (VMULPD, VADDPD) of every step in ascending order, the scalar
// naive loops' own arithmetic. With skipZero the product of an exact-zero A
// value is masked to +0; since no sum is ever -0, adding +0 leaves it
// exactly as skipping the term does, NaN and Inf in b included.
TEXT ·groupKernelAVX(SB), NOSPLIT, $0-57
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), R8
	MOVQ   rowStride+16(FP), R10
	SHLQ   $3, R10
	LEAQ   (R10)(R10*2), R11
	MOVQ   stepStride+24(FP), R12
	SHLQ   $3, R12
	MOVQ   b+32(FP), R9
	MOVQ   k+40(FP), CX
	MOVQ   p+48(FP), SI
	MOVQ   SI, R13
	SHLQ   $3, R13
	VXORPD Y15, Y15, Y15

	// Full groups: plain loads and stores.
fullgroup:
	CMPQ   SI, $4
	JLT    tailgroup
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, AX
	MOVQ   R9, DX
	MOVQ   CX, BX
	TESTQ  BX, BX
	JZ     fullstore
	CMPB   skipZero+56(FP), $0
	JEQ    fullplain

fullskip:
	VMOVUPD (DX), Y8
	STEP(SKIPTERM)
	DECQ    BX
	JNZ     fullskip
	JMP     fullstore

fullplain:
	VMOVUPD (DX), Y8
	STEP(TERM)
	DECQ    BX
	JNZ     fullplain

fullstore:
	MOVQ    DI, DX
	VMOVUPD Y0, (DX)
	ADDQ    R13, DX
	VMOVUPD Y1, (DX)
	ADDQ    R13, DX
	VMOVUPD Y2, (DX)
	ADDQ    R13, DX
	VMOVUPD Y3, (DX)
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, SI
	JMP     fullgroup

	// The last p mod 4 columns: masked loads and stores read and write
	// nothing past them.
tailgroup:
	TESTQ   SI, SI
	JZ      groupdone
	MOVQ    $4, AX
	SUBQ    SI, AX
	LEAQ    groupMask<>(SB), DX
	VMOVUPD (DX)(AX*8), Y13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	MOVQ    R8, AX
	MOVQ    R9, DX
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      tailstore
	CMPB    skipZero+56(FP), $0
	JEQ     tailplain

tailskip:
	VMASKMOVPD (DX), Y13, Y8
	STEP(SKIPTERM)
	DECQ       BX
	JNZ        tailskip
	JMP        tailstore

tailplain:
	VMASKMOVPD (DX), Y13, Y8
	STEP(TERM)
	DECQ       BX
	JNZ        tailplain

tailstore:
	VMASKMOVPD Y0, Y13, (DI)
	ADDQ       R13, DI
	VMASKMOVPD Y1, Y13, (DI)
	ADDQ       R13, DI
	VMASKMOVPD Y2, Y13, (DI)
	ADDQ       R13, DI
	VMASKMOVPD Y3, Y13, (DI)

groupdone:
	VZEROUPPER
	RET
