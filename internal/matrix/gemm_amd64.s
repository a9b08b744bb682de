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
//
// signSplitAVX is SignSplit's body: a 4-row stripe of AdaFGL's evolved
// propagation matrix, computed one 4x4 block at a time with the scalar
// twin's rounded products, split by sign under a mask and transposed in
// registers into the row-panel layout the tile kernels read.

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

// One row of the split kernel's 4x4 block: v = round(β·p̃) +
// round((1−β)·round(g·scale)) for the four columns of the row whose P̃, G
// and scale segments are at pa, ga and sa, left in v.
#define SPLITROW(pa, ga, sa, v) \
	VMOVUPD pa, Y4; \
	VMOVUPD ga, Y5; \
	VMULPD  sa, Y5, Y5; \
	VMULPD  Y13, Y5, Y5; \
	VMULPD  Y12, Y4, Y4; \
	VADDPD  Y5, Y4, v

// One column of the transposed block (the four rows of column c) into the
// row panels: pos = c where c > 0 (GT_OQ: NaN is not), else +0; neg = −c
// where not, else +0.
#define SPLITCOL(c, off) \
	VCMPPD  $0x1e, Y15, c, Y4; \
	VANDPD  Y4, c, Y5; \
	VXORPD  Y14, c, Y6; \
	VANDNPD Y6, Y4, Y6; \
	VMOVUPD Y5, off(DI); \
	VMOVUPD Y6, off(SI)

// func signSplitAVX(pos, neg, pt, gm *float64, stride, groups int, beta, rest float64, scale *float64, scaleRow, scaleStep int)
//
// Writes groups 4-column groups of a 4-row stripe of the PoSign and NeSign
// halves of P = β·P̃ + (1−β)·(G∘scale) into pos and neg in row-panel layout:
// element (s, r) at s·4 + r. Row r of P̃ and G starts r·stride values past pt
// and gm; row r's four scale factors of a group are read at scale + r·scaleRow
// bytes, and the scale table steps scaleStep bytes per group (a per-row
// broadcast table, or a per-column vector). Every element is the scalar
// twin's: three rounded products and one add, never fused. The 4x4 block of
// v is transposed in registers (VUNPCKLPD/VUNPCKHPD, VPERM2F128), so each
// column's four rows are one 32-byte store per half.
TEXT ·signSplitAVX(SB), NOSPLIT, $0-88
	MOVQ         pos+0(FP), DI
	MOVQ         neg+8(FP), SI
	MOVQ         pt+16(FP), AX
	MOVQ         gm+24(FP), BX
	MOVQ         stride+32(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         groups+40(FP), CX
	VBROADCASTSD beta+48(FP), Y12
	VBROADCASTSD rest+56(FP), Y13
	MOVQ         scale+64(FP), DX
	MOVQ         scaleRow+72(FP), R8
	LEAQ         (R8)(R8*2), R9
	MOVQ         scaleStep+80(FP), R12
	VXORPD       Y15, Y15, Y15
	MOVQ         $0x8000000000000000, R13
	MOVQ         R13, X14
	VBROADCASTSD X14, Y14

	TESTQ CX, CX
	JZ    splitdone

splitloop:
	// Row r's P̃ and G segments sit r·stride bytes on, its scale segment
	// r·scaleRow bytes on.
	SPLITROW((AX), (BX), (DX), Y0)
	SPLITROW((AX)(R10*1), (BX)(R10*1), (DX)(R8*1), Y1)
	SPLITROW((AX)(R10*2), (BX)(R10*2), (DX)(R8*2), Y2)
	SPLITROW((AX)(R11*1), (BX)(R11*1), (DX)(R9*1), Y3)

	// Transpose: Y8..Y11 are columns 0..3, each holding rows 0..3.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11

	SPLITCOL(Y8, 0)
	SPLITCOL(Y9, 32)
	SPLITCOL(Y10, 64)
	SPLITCOL(Y11, 96)

	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ R12, DX
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ CX
	JNZ  splitloop

splitdone:
	VZEROUPPER
	RET
