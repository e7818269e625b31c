//go:build amd64 && !noasm

#include "textflag.h"

// AVX2+FMA tile-FMA microkernels. Shared shape: tap weights are broadcast
// into YMM registers once per call (the register-level hoist), then every
// tile row is swept 8 output columns at a time — per 8 columns: one
// accumulator load, one FMA per tap, one store. Two accumulator chains
// (Y8/Y9) halve the FMA latency chain; a scalar VFMADD231SS loop finishes
// the cols%8 ragged edge so the iteration domain matches the generic
// kernels exactly. Strides arrive in float32 elements and are converted to
// bytes here.

// func fmaTile4AVX2(dst *float32, dstStride int, src *[4]*float32, srcStride int, w *[4]float32, cols, rows int)
TEXT ·fmaTile4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ w+32(FP), DX
	MOVQ cols+40(FP), CX
	MOVQ rows+48(FP), BX

	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3

	MOVQ 0(SI), R10
	MOVQ 8(SI), R11
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13

	SHLQ $2, R8
	SHLQ $2, R9
	MOVQ CX, DX
	ANDQ $-8, DX

rows4:
	TESTQ BX, BX
	JZ   done4
	XORQ SI, SI

vec4:
	CMPQ SI, DX
	JGE  tail4
	VMOVUPS (DI)(SI*4), Y8
	VMOVUPS (R10)(SI*4), Y10
	VFMADD231PS Y0, Y10, Y8
	VMOVUPS (R11)(SI*4), Y11
	VMULPS Y1, Y11, Y9
	VMOVUPS (R12)(SI*4), Y12
	VFMADD231PS Y2, Y12, Y8
	VMOVUPS (R13)(SI*4), Y13
	VFMADD231PS Y3, Y13, Y9
	VADDPS Y9, Y8, Y8
	VMOVUPS Y8, (DI)(SI*4)
	ADDQ $8, SI
	JMP  vec4

tail4:
	CMPQ SI, CX
	JGE  next4
	VMOVSS (DI)(SI*4), X8
	VMOVSS (R10)(SI*4), X10
	VFMADD231SS X0, X10, X8
	VMOVSS (R11)(SI*4), X11
	VFMADD231SS X1, X11, X8
	VMOVSS (R12)(SI*4), X12
	VFMADD231SS X2, X12, X8
	VMOVSS (R13)(SI*4), X13
	VFMADD231SS X3, X13, X8
	VMOVSS X8, (DI)(SI*4)
	INCQ SI
	JMP  tail4

next4:
	ADDQ R8, DI
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ R9, R12
	ADDQ R9, R13
	DECQ BX
	JMP  rows4

done4:
	VZEROUPPER
	RET

// func fmaTile8AVX2(dst *float32, dstStride int, src *[8]*float32, srcStride int, w *[8]float32, cols, rows int)
TEXT ·fmaTile8AVX2(SB), NOSPLIT, $8-56
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ w+32(FP), DX
	MOVQ cols+40(FP), CX
	MOVQ rows+48(FP), BX

	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3
	VBROADCASTSS 16(DX), Y4
	VBROADCASTSS 20(DX), Y5
	VBROADCASTSS 24(DX), Y6
	VBROADCASTSS 28(DX), Y7

	MOVQ CX, AX
	ANDQ $-8, AX
	MOVQ AX, limit-8(SP)

	MOVQ 0(SI), R10
	MOVQ 8(SI), R11
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	MOVQ 32(SI), R14
	MOVQ 40(SI), R15
	MOVQ 48(SI), DX
	MOVQ 56(SI), AX

	SHLQ $2, R8
	SHLQ $2, R9

rows8:
	TESTQ BX, BX
	JZ   done8
	XORQ SI, SI

vec8:
	CMPQ SI, limit-8(SP)
	JGE  tail8
	VMOVUPS (DI)(SI*4), Y8
	VMOVUPS (R10)(SI*4), Y10
	VFMADD231PS Y0, Y10, Y8
	VMOVUPS (R11)(SI*4), Y11
	VMULPS Y1, Y11, Y9
	VMOVUPS (R12)(SI*4), Y12
	VFMADD231PS Y2, Y12, Y8
	VMOVUPS (R13)(SI*4), Y13
	VFMADD231PS Y3, Y13, Y9
	VMOVUPS (R14)(SI*4), Y10
	VFMADD231PS Y4, Y10, Y8
	VMOVUPS (R15)(SI*4), Y11
	VFMADD231PS Y5, Y11, Y9
	VMOVUPS (DX)(SI*4), Y12
	VFMADD231PS Y6, Y12, Y8
	VMOVUPS (AX)(SI*4), Y13
	VFMADD231PS Y7, Y13, Y9
	VADDPS Y9, Y8, Y8
	VMOVUPS Y8, (DI)(SI*4)
	ADDQ $8, SI
	JMP  vec8

tail8:
	CMPQ SI, CX
	JGE  next8
	VMOVSS (DI)(SI*4), X8
	VMOVSS (R10)(SI*4), X10
	VFMADD231SS X0, X10, X8
	VMOVSS (R11)(SI*4), X11
	VFMADD231SS X1, X11, X8
	VMOVSS (R12)(SI*4), X12
	VFMADD231SS X2, X12, X8
	VMOVSS (R13)(SI*4), X13
	VFMADD231SS X3, X13, X8
	VMOVSS (R14)(SI*4), X10
	VFMADD231SS X4, X10, X8
	VMOVSS (R15)(SI*4), X11
	VFMADD231SS X5, X11, X8
	VMOVSS (DX)(SI*4), X12
	VFMADD231SS X6, X12, X8
	VMOVSS (AX)(SI*4), X13
	VFMADD231SS X7, X13, X8
	VMOVSS X8, (DI)(SI*4)
	INCQ SI
	JMP  tail8

next8:
	ADDQ R8, DI
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ R9, R12
	ADDQ R9, R13
	ADDQ R9, R14
	ADDQ R9, R15
	ADDQ R9, DX
	ADDQ R9, AX
	DECQ BX
	JMP  rows8

done8:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Run kernels: the output stays resident, the kernel list streams past.
//
// Shared shape. The output is walked in blocks of 16, then 8, then 4 pixels
// and a masked tail of 1–3, each block walking the whole kernel list with
// four partial sums per pixel in Y0–Y7 (partial t of the low/high vector in
// Y(2t)/Y(2t+1); the 8-, 4- and tail blocks use the even registers only).
// Per kernel the four weights arrive as one 16-byte load (four int8 levels
// widened by VPMOVSXBD + VCVTDQ2PS for Q8) and are splatted across Y8–Y11 in
// registers — VBROADCASTSS for lane 0, VPERMPS through the constant lane
// selectors Y13–Y15 for lanes 1–3 — so the load ports carry only the input:
// every FMA takes its source as a memory operand. A block ends with
// (a0+a1)+(a2+a3), one add into dst and one store. The tail loads and stores
// through VMASKMOVPS, which neither reads nor faults on masked-off lanes, so
// the iteration domain is exactly n.

// The -1 lanes of the tail mask for n = 3, 2, 1 start at byte 0, 4, 8.
DATA runTailMask<>+0(SB)/4, $0xffffffff
DATA runTailMask<>+4(SB)/4, $0xffffffff
DATA runTailMask<>+8(SB)/4, $0xffffffff
DATA runTailMask<>+12(SB)/4, $0
DATA runTailMask<>+16(SB)/4, $0
DATA runTailMask<>+20(SB)/4, $0
GLOBL runTailMask<>(SB), RODATA|NOPTR, $24

// Y13–Y15 = lane selectors 1, 2, 3 (clobbers AX).
#define RUN_LANES \
	MOVL $1, AX; VMOVD AX, X13; VPBROADCASTD X13, Y13; \
	MOVL $2, AX; VMOVD AX, X14; VPBROADCASTD X14, Y14; \
	MOVL $3, AX; VMOVD AX, X15; VPBROADCASTD X15, Y15

// X1 = tail mask for CX in 1..3 (clobbers AX, BX).
#define RUN_TAILMASK \
	LEAQ runTailMask<>(SB), BX; \
	MOVQ $3, AX; \
	SUBQ CX, AX; \
	VMOVUPS (BX)(AX*4), X1

#define RUN_ZERO8 \
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; \
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7

#define RUN_ZERO4 \
	VXORPS Y0, Y0, Y0; VXORPS Y2, Y2, Y2; VXORPS Y4, Y4, Y4; VXORPS Y6, Y6, Y6

// Y8–Y11 = lanes 0–3 of X12 (upper half of Y12 is zero after any VEX.128 write).
#define RUN_SPLAT \
	VBROADCASTSS X12, Y8; \
	VPERMPS Y12, Y13, Y9; \
	VPERMPS Y12, Y14, Y10; \
	VPERMPS Y12, Y15, Y11

// (a0+a1)+(a2+a3) into Y0 (and Y1 for the high vector of a 16-block).
#define RUN_SUM_LO \
	VADDPS Y2, Y0, Y0; VADDPS Y6, Y4, Y4; VADDPS Y4, Y0, Y0
#define RUN_SUM_HI \
	VADDPS Y3, Y1, Y1; VADDPS Y7, Y5, Y5; VADDPS Y5, Y1, Y1

// Run4 addressing: BX = base cursor + ch[AX]·chStride; taps at R12–R15.
#define RUN4_CHAN \
	MOVWLZX (R9)(AX*2), BX; \
	IMULQ R8, BX; \
	ADDQ SI, BX

#define RUN4_FMA16 \
	VFMADD231PS (BX)(R12*1), Y8, Y0; VFMADD231PS 32(BX)(R12*1), Y8, Y1; \
	VFMADD231PS (BX)(R13*1), Y9, Y2; VFMADD231PS 32(BX)(R13*1), Y9, Y3; \
	VFMADD231PS (BX)(R14*1), Y10, Y4; VFMADD231PS 32(BX)(R14*1), Y10, Y5; \
	VFMADD231PS (BX)(R15*1), Y11, Y6; VFMADD231PS 32(BX)(R15*1), Y11, Y7

#define RUN4_FMA8 \
	VFMADD231PS (BX)(R12*1), Y8, Y0; \
	VFMADD231PS (BX)(R13*1), Y9, Y2; \
	VFMADD231PS (BX)(R14*1), Y10, Y4; \
	VFMADD231PS (BX)(R15*1), Y11, Y6

#define RUN4_FMA4 \
	VFMADD231PS (BX)(R12*1), X8, X0; \
	VFMADD231PS (BX)(R13*1), X9, X2; \
	VFMADD231PS (BX)(R14*1), X10, X4; \
	VFMADD231PS (BX)(R15*1), X11, X6

#define RUN4_FMATAIL \
	VMASKMOVPS (BX)(R12*1), X1, X3; VFMADD231PS X3, X8, X0; \
	VMASKMOVPS (BX)(R13*1), X1, X5; VFMADD231PS X5, X9, X2; \
	VMASKMOVPS (BX)(R14*1), X1, X7; VFMADD231PS X7, X10, X4; \
	VMASKMOVPS (BX)(R15*1), X1, X3; VFMADD231PS X3, X11, X6

// The four block epilogues: dst += sum, advance dst and the base cursor.
#define RUN_STORE16 \
	VADDPS (DI), Y0, Y0; VADDPS 32(DI), Y1, Y1; \
	VMOVUPS Y0, (DI); VMOVUPS Y1, 32(DI); \
	ADDQ $64, DI; ADDQ $64, SI; SUBQ $16, CX
#define RUN_STORE8 \
	VADDPS (DI), Y0, Y0; \
	VMOVUPS Y0, (DI); \
	ADDQ $32, DI; ADDQ $32, SI; SUBQ $8, CX
#define RUN_STORE4 \
	VADDPS (DI), X0, X0; \
	VMOVUPS X0, (DI); \
	ADDQ $16, DI; ADDQ $16, SI; SUBQ $4, CX
#define RUN_STORETAIL \
	VMASKMOVPS (DI), X1, X3; \
	VADDPS X3, X0, X0; \
	VMASKMOVPS X0, X1, (DI)

#define RUN4_LOADW_F32 \
	VMOVUPS (DX), X12; \
	ADDQ $16, DX
#define RUN4_LOADW_Q8 \
	VPMOVSXBD (DX), X12; \
	VCVTDQ2PS X12, X12; \
	ADDQ $4, DX

// func runTaps4AVX2(dst *float32, n int, base *float32, chStride int, ch []uint16, w []float32, tapOff *[4]int)
TEXT ·runTaps4AVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ base+16(FP), SI
	MOVQ chStride+24(FP), R8
	MOVQ ch_base+32(FP), R9
	MOVQ ch_len+40(FP), R10
	MOVQ w_base+56(FP), R11
	MOVQ tapOff+80(FP), AX
	MOVQ 0(AX), R12
	MOVQ 8(AX), R13
	MOVQ 16(AX), R14
	MOVQ 24(AX), R15
	TESTQ R10, R10
	JZ   r4done
	SHLQ $2, R8
	SHLQ $2, R12
	SHLQ $2, R13
	SHLQ $2, R14
	SHLQ $2, R15
	RUN_LANES

r4b16:
	CMPQ CX, $16
	JLT  r4b8
	RUN_ZERO8
	XORQ AX, AX
	MOVQ R11, DX
r4k16:
	RUN4_CHAN
	RUN4_LOADW_F32
	RUN_SPLAT
	RUN4_FMA16
	INCQ AX
	CMPQ AX, R10
	JLT  r4k16
	RUN_SUM_LO
	RUN_SUM_HI
	RUN_STORE16
	JMP  r4b16

r4b8:
	CMPQ CX, $8
	JLT  r4b4
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
r4k8:
	RUN4_CHAN
	RUN4_LOADW_F32
	RUN_SPLAT
	RUN4_FMA8
	INCQ AX
	CMPQ AX, R10
	JLT  r4k8
	RUN_SUM_LO
	RUN_STORE8

r4b4:
	CMPQ CX, $4
	JLT  r4tail
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
r4k4:
	RUN4_CHAN
	RUN4_LOADW_F32
	RUN_SPLAT
	RUN4_FMA4
	INCQ AX
	CMPQ AX, R10
	JLT  r4k4
	RUN_SUM_LO
	RUN_STORE4

r4tail:
	CMPQ CX, $0
	JLE  r4done
	RUN_TAILMASK
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
r4kt:
	RUN4_CHAN
	RUN4_LOADW_F32
	RUN_SPLAT
	RUN4_FMATAIL
	INCQ AX
	CMPQ AX, R10
	JLT  r4kt
	RUN_SUM_LO
	RUN_STORETAIL

r4done:
	VZEROUPPER
	RET

// func runTaps4Q8AVX2(dst *float32, n int, base *float32, chStride int, ch []uint16, q []int8, scale float32, tapOff *[4]int)
//
// runTaps4AVX2 over int8 levels: the partial sums accumulate the raw levels
// and each block's sum is multiplied by scale once, before the add into dst.
TEXT ·runTaps4Q8AVX2(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ base+16(FP), SI
	MOVQ chStride+24(FP), R8
	MOVQ ch_base+32(FP), R9
	MOVQ ch_len+40(FP), R10
	MOVQ q_base+56(FP), R11
	MOVQ tapOff+88(FP), AX
	MOVQ 0(AX), R12
	MOVQ 8(AX), R13
	MOVQ 16(AX), R14
	MOVQ 24(AX), R15
	TESTQ R10, R10
	JZ   q4done
	SHLQ $2, R8
	SHLQ $2, R12
	SHLQ $2, R13
	SHLQ $2, R14
	SHLQ $2, R15
	RUN_LANES

q4b16:
	CMPQ CX, $16
	JLT  q4b8
	RUN_ZERO8
	XORQ AX, AX
	MOVQ R11, DX
q4k16:
	RUN4_CHAN
	RUN4_LOADW_Q8
	RUN_SPLAT
	RUN4_FMA16
	INCQ AX
	CMPQ AX, R10
	JLT  q4k16
	RUN_SUM_LO
	RUN_SUM_HI
	VBROADCASTSS scale+80(FP), Y8
	VMULPS Y8, Y0, Y0
	VMULPS Y8, Y1, Y1
	RUN_STORE16
	JMP  q4b16

q4b8:
	CMPQ CX, $8
	JLT  q4b4
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
q4k8:
	RUN4_CHAN
	RUN4_LOADW_Q8
	RUN_SPLAT
	RUN4_FMA8
	INCQ AX
	CMPQ AX, R10
	JLT  q4k8
	RUN_SUM_LO
	VBROADCASTSS scale+80(FP), Y8
	VMULPS Y8, Y0, Y0
	RUN_STORE8

q4b4:
	CMPQ CX, $4
	JLT  q4tail
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
q4k4:
	RUN4_CHAN
	RUN4_LOADW_Q8
	RUN_SPLAT
	RUN4_FMA4
	INCQ AX
	CMPQ AX, R10
	JLT  q4k4
	RUN_SUM_LO
	VBROADCASTSS scale+80(FP), X8
	VMULPS X8, X0, X0
	RUN_STORE4

q4tail:
	CMPQ CX, $0
	JLE  q4done
	RUN_TAILMASK
	RUN_ZERO4
	XORQ AX, AX
	MOVQ R11, DX
q4kt:
	RUN4_CHAN
	RUN4_LOADW_Q8
	RUN_SPLAT
	RUN4_FMATAIL
	INCQ AX
	CMPQ AX, R10
	JLT  q4kt
	RUN_SUM_LO
	VBROADCASTSS scale+80(FP), X8
	VMULPS X8, X0, X0
	RUN_STORETAIL

q4done:
	VZEROUPPER
	RET

// Run1 addressing: BX = ch[AX+i]·chStride, an index off the base cursor SI.
#define RUN1_CHAN(off) \
	MOVLQSX off(R9)(AX*4), BX; \
	IMULQ R8, BX

#define RUN1_QUAD16 \
	RUN1_CHAN(0); VFMADD231PS (SI)(BX*1), Y8, Y0; VFMADD231PS 32(SI)(BX*1), Y8, Y1; \
	RUN1_CHAN(4); VFMADD231PS (SI)(BX*1), Y9, Y2; VFMADD231PS 32(SI)(BX*1), Y9, Y3; \
	RUN1_CHAN(8); VFMADD231PS (SI)(BX*1), Y10, Y4; VFMADD231PS 32(SI)(BX*1), Y10, Y5; \
	RUN1_CHAN(12); VFMADD231PS (SI)(BX*1), Y11, Y6; VFMADD231PS 32(SI)(BX*1), Y11, Y7

#define RUN1_QUAD8 \
	RUN1_CHAN(0); VFMADD231PS (SI)(BX*1), Y8, Y0; \
	RUN1_CHAN(4); VFMADD231PS (SI)(BX*1), Y9, Y2; \
	RUN1_CHAN(8); VFMADD231PS (SI)(BX*1), Y10, Y4; \
	RUN1_CHAN(12); VFMADD231PS (SI)(BX*1), Y11, Y6

#define RUN1_QUAD4 \
	RUN1_CHAN(0); VFMADD231PS (SI)(BX*1), X8, X0; \
	RUN1_CHAN(4); VFMADD231PS (SI)(BX*1), X9, X2; \
	RUN1_CHAN(8); VFMADD231PS (SI)(BX*1), X10, X4; \
	RUN1_CHAN(12); VFMADD231PS (SI)(BX*1), X11, X6

#define RUN1_QUADTAIL \
	RUN1_CHAN(0); VMASKMOVPS (SI)(BX*1), X1, X3; VFMADD231PS X3, X8, X0; \
	RUN1_CHAN(4); VMASKMOVPS (SI)(BX*1), X1, X5; VFMADD231PS X5, X9, X2; \
	RUN1_CHAN(8); VMASKMOVPS (SI)(BX*1), X1, X7; VFMADD231PS X7, X10, X4; \
	RUN1_CHAN(12); VMASKMOVPS (SI)(BX*1), X1, X3; VFMADD231PS X3, X11, X6

// func runRow1AVX2(dst *float32, n int, base *float32, chStride int, ch []int32, w []float32)
//
// Four kept channels per step feed the four partial sums (k mod 4); the
// ragged 1–3 channels behind the last quad join partial 0.
TEXT ·runRow1AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ base+16(FP), SI
	MOVQ chStride+24(FP), R8
	MOVQ ch_base+32(FP), R9
	MOVQ ch_len+40(FP), R10
	MOVQ w_base+56(FP), R11
	TESTQ R10, R10
	JZ   r1done
	SHLQ $2, R8
	MOVQ R10, R12
	ANDQ $-4, R12
	RUN_LANES

r1b16:
	CMPQ CX, $16
	JLT  r1b8
	RUN_ZERO8
	XORQ AX, AX
r1q16:
	CMPQ AX, R12
	JGE  r1s16
	VMOVUPS (R11)(AX*4), X12
	RUN_SPLAT
	RUN1_QUAD16
	ADDQ $4, AX
	JMP  r1q16
r1s16:
	CMPQ AX, R10
	JGE  r1e16
	VBROADCASTSS (R11)(AX*4), Y8
	RUN1_CHAN(0)
	VFMADD231PS (SI)(BX*1), Y8, Y0
	VFMADD231PS 32(SI)(BX*1), Y8, Y1
	INCQ AX
	JMP  r1s16
r1e16:
	RUN_SUM_LO
	RUN_SUM_HI
	RUN_STORE16
	JMP  r1b16

r1b8:
	CMPQ CX, $8
	JLT  r1b4
	RUN_ZERO4
	XORQ AX, AX
r1q8:
	CMPQ AX, R12
	JGE  r1s8
	VMOVUPS (R11)(AX*4), X12
	RUN_SPLAT
	RUN1_QUAD8
	ADDQ $4, AX
	JMP  r1q8
r1s8:
	CMPQ AX, R10
	JGE  r1e8
	VBROADCASTSS (R11)(AX*4), Y8
	RUN1_CHAN(0)
	VFMADD231PS (SI)(BX*1), Y8, Y0
	INCQ AX
	JMP  r1s8
r1e8:
	RUN_SUM_LO
	RUN_STORE8

r1b4:
	CMPQ CX, $4
	JLT  r1tail
	RUN_ZERO4
	XORQ AX, AX
r1q4:
	CMPQ AX, R12
	JGE  r1s4
	VMOVUPS (R11)(AX*4), X12
	RUN_SPLAT
	RUN1_QUAD4
	ADDQ $4, AX
	JMP  r1q4
r1s4:
	CMPQ AX, R10
	JGE  r1e4
	VBROADCASTSS (R11)(AX*4), X8
	RUN1_CHAN(0)
	VFMADD231PS (SI)(BX*1), X8, X0
	INCQ AX
	JMP  r1s4
r1e4:
	RUN_SUM_LO
	RUN_STORE4

r1tail:
	CMPQ CX, $0
	JLE  r1done
	RUN_TAILMASK
	RUN_ZERO4
	XORQ AX, AX
r1qt:
	CMPQ AX, R12
	JGE  r1st
	VMOVUPS (R11)(AX*4), X12
	RUN_SPLAT
	RUN1_QUADTAIL
	ADDQ $4, AX
	JMP  r1qt
r1st:
	CMPQ AX, R10
	JGE  r1et
	VBROADCASTSS (R11)(AX*4), X8
	RUN1_CHAN(0)
	VMASKMOVPS (SI)(BX*1), X1, X3
	VFMADD231PS X3, X8, X0
	INCQ AX
	JMP  r1st
r1et:
	RUN_SUM_LO
	RUN_STORETAIL

r1done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Epilogue kernels: one pass over an output span — 32 elements per step,
// then 8, then 4, then VEX scalar tails. Go's semantics bit for bit: the add
// keeps src as its first operand, so a NaN shortcut's payload wins over a
// NaN bias as in src[i] + b; ReLU takes max(+0, x) with x second, which
// returns x for a NaN and for either zero, then clears the sign bit — −0
// becomes +0 and a NaN keeps its payload unsigned, exactly what the builtin
// max(x, 0) compiles to.

#define EPI_FILL(off) VMOVUPS Y0, off(DI)(AX*4)
#define EPI_ADD(off) VMOVUPS off(SI)(AX*4), Y1; VADDPS Y0, Y1, Y1; VMOVUPS Y1, off(DI)(AX*4)
#define EPI_RELU(off) VMAXPS off(DI)(AX*4), Y15, Y1; VANDPS Y14, Y1, Y1; VMOVUPS Y1, off(DI)(AX*4)

// func initAVX2(dst, src []float32, b float32)
TEXT ·initAVX2(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS b+48(FP), Y0
	XORQ AX, AX
	TESTQ SI, SI
	JZ   fill32

add32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  add8
	EPI_ADD(0); EPI_ADD(32); EPI_ADD(64); EPI_ADD(96)
	MOVQ DX, AX
	JMP  add32
add8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  add4
	EPI_ADD(0)
	MOVQ DX, AX
	JMP  add8
add4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  add1
	VMOVUPS (SI)(AX*4), X1
	VADDPS X0, X1, X1
	VMOVUPS X1, (DI)(AX*4)
	MOVQ DX, AX
add1:
	CMPQ AX, CX
	JGE  initdone
	VMOVSS (SI)(AX*4), X1
	VADDSS X0, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  add1

fill32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  fill8
	EPI_FILL(0); EPI_FILL(32); EPI_FILL(64); EPI_FILL(96)
	MOVQ DX, AX
	JMP  fill32
fill8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  fill4
	EPI_FILL(0)
	MOVQ DX, AX
	JMP  fill8
fill4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  fill1
	VMOVUPS X0, (DI)(AX*4)
	MOVQ DX, AX
fill1:
	CMPQ AX, CX
	JGE  initdone
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	JMP  fill1

initdone:
	VZEROUPPER
	RET

// func reluAVX2(dst []float32)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VXORPS Y15, Y15, Y15
	MOVL $0x7fffffff, AX
	VMOVD AX, X14
	VPBROADCASTD X14, Y14
	XORQ AX, AX

relu32:
	LEAQ 32(AX), DX
	CMPQ DX, CX
	JGT  relu8
	EPI_RELU(0); EPI_RELU(32); EPI_RELU(64); EPI_RELU(96)
	MOVQ DX, AX
	JMP  relu32
relu8:
	LEAQ 8(AX), DX
	CMPQ DX, CX
	JGT  relu4
	EPI_RELU(0)
	MOVQ DX, AX
	JMP  relu8
relu4:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  relu1
	VMAXPS (DI)(AX*4), X15, X1
	VANDPS X14, X1, X1
	VMOVUPS X1, (DI)(AX*4)
	MOVQ DX, AX
relu1:
	CMPQ AX, CX
	JGE  reludone
	VMAXSS (DI)(AX*4), X15, X1
	VANDPS X14, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ AX
	JMP  relu1

reludone:
	VZEROUPPER
	RET
