#include "textflag.h"

// MAC adds into acc the products of eight columns of a row, in Y6, with the
// same columns of q: Y4 holds them for the even lanes and Y5 shifted down
// for the odd ones. VPMULUDQ multiplies the low dword of every qword lane,
// so a lane is the exact 64-bit product of two uint32, and VPADDQ wraps
// modulo 2⁶⁴ as IntDotRef's int64 sum does: bit-identical, in any order.
#define MAC(acc) \
	VPSRLQ   $32, Y6, Y7; \
	VPMULUDQ Y4, Y6, Y6; \
	VPMULUDQ Y5, Y7, Y7; \
	VPADDQ   Y6, Y7, Y7; \
	VPADDQ   Y7, acc, acc

// BLOCK is MAC on the eight whole columns at byte offset AX of a row, TAIL
// on the dims%8 last ones, which Y15 masks in. A masked load neither reads
// nor faults on the lanes it masks out, so not one byte past a row or past
// q is touched: the slab aliases a caller's array and may end where a page
// does.
#define BLOCK(row, acc) \
	VMOVDQU (row)(AX*1), Y6; \
	MAC(acc)
#define TAIL(row, acc) \
	VPMASKMOVD (row)(AX*1), Y15, Y6; \
	MAC(acc)

// HSUM stores at addr the sum of acc's four qword lanes (X is its low half).
#define HSUM(acc, X, addr) \
	VEXTRACTI128 $1, acc, X7; \
	VPADDQ       X7, X, X; \
	VPSHUFD      $0xEE, X, X7; \
	VPADDQ       X7, X, X; \
	VMOVQ        X, addr

// Both bodies below walk four rows in lockstep, at SI, R9, R10 and R11, into
// the accumulators Y0…Y3, against one load of q (DI) per block: ZERO4 clears
// the accumulators, BLOCK4 is BLOCK on the four rows at byte offset AX, and
// TAIL4 is TAIL on them.
#define ZERO4 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3
#define BLOCK4 \
	VMOVDQU (DI)(AX*1), Y4; \
	VPSRLQ  $32, Y4, Y5; \
	BLOCK(SI, Y0); \
	BLOCK(R9, Y1); \
	BLOCK(R10, Y2); \
	BLOCK(R11, Y3)
#define TAIL4 \
	VPMASKMOVD (DI)(AX*1), Y15, Y4; \
	VPSRLQ     $32, Y4, Y5; \
	TAIL(SI, Y0); \
	TAIL(R9, Y1); \
	TAIL(R10, Y2); \
	TAIL(R11, Y3)

// ROWBYTES takes dims in CX and leaves Y15 = lane i is all ones where
// i < dims%8 (the tail's load mask), CX = bytes in a row and R12 = bytes of
// it in whole blocks. It clobbers AX and Y14.
#define ROWBYTES \
	MOVQ         $0x0706050403020100, AX; \
	VMOVQ        AX, X14; \
	VPMOVZXBD    X14, Y14; \
	MOVQ         CX, AX; \
	ANDQ         $7, AX; \
	VMOVQ        AX, X15; \
	VPBROADCASTD X15, Y15; \
	VPCMPGTD     Y14, Y15, Y15; \
	SHLQ         $2, CX; \
	MOVQ         CX, R12; \
	ANDQ         $-32, R12

// func intDotQuadsAVX2(rows, q []uint32, dst []int64, h, steps int)
//
// The four-rows-in-lockstep step of intDotQuadsGo, steps times: for
// r < steps and i < 4, dst[r+i·h] = rows[(r+i·h)·dims:][:dims]·q, where
// dims = len(q). The caller guarantees dims > 0, steps > 0 and that rows
// and dst reach row and slot steps-1+3h; no len or cap but q's is read.
TEXT ·intDotQuadsAVX2(SB), NOSPLIT, $0-88
	MOVQ rows_base+0(FP), SI
	MOVQ q_base+24(FP), DI
	MOVQ q_len+32(FP), CX
	MOVQ dst_base+48(FP), DX
	MOVQ h+72(FP), BX
	MOVQ steps+80(FP), R8
	ROWBYTES

	// SI, R9, R10, R11 = the step's row in each quarter of the slab, h rows
	// apart; DX, DX+BX, DX+2·BX, DX+R13 = their slots in dst.
	MOVQ  BX, R11
	IMULQ CX, R11
	LEAQ  (SI)(R11*1), R9
	LEAQ  (R9)(R11*1), R10
	LEAQ  (R10)(R11*1), R11
	SHLQ  $3, BX
	LEAQ  (BX)(BX*2), R13

step:
	ZERO4
	XORQ AX, AX
	CMPQ AX, R12
	JAE  tail

block:
	BLOCK4
	ADDQ $32, AX
	CMPQ AX, R12
	JB   block

tail:
	CMPQ AX, CX
	JAE  sum
	TAIL4

sum:
	HSUM(Y0, X0, (DX))
	HSUM(Y1, X1, (DX)(BX*1))
	HSUM(Y2, X2, (DX)(BX*2))
	HSUM(Y3, X3, (DX)(R13*1))
	ADDQ CX, SI
	ADDQ CX, R9
	ADDQ CX, R10
	ADDQ CX, R11
	ADDQ $8, DX
	DECQ R8
	JNZ  step
	VZEROUPPER
	RET

// func intDotGatherAVX2(slab, q []uint32, rows []int, dst []int64)
//
// The four-listed-rows-in-lockstep step of intDotGatherGo, len(rows)/4
// times: dst[r] = slab[r·dims:][:dims]·q for every r of rows, where
// dims = len(q). The caller guarantees dims > 0, that len(rows) is a
// positive multiple of four, and that every listed row lies inside slab and
// every listed slot inside dst; no len or cap but q's and rows' is read.
TEXT ·intDotGatherAVX2(SB), NOSPLIT, $0-96
	MOVQ slab_base+0(FP), R13
	MOVQ q_base+24(FP), DI
	MOVQ q_len+32(FP), CX
	MOVQ rows_base+48(FP), BX
	MOVQ rows_len+56(FP), R8
	MOVQ dst_base+72(FP), DX
	SHRQ $2, R8
	ROWBYTES

gstep:
	// SI, R9, R10, R11 = the four rows listed at BX.
	MOVQ  (BX), SI
	MOVQ  8(BX), R9
	MOVQ  16(BX), R10
	MOVQ  24(BX), R11
	IMULQ CX, SI
	IMULQ CX, R9
	IMULQ CX, R10
	IMULQ CX, R11
	ADDQ  R13, SI
	ADDQ  R13, R9
	ADDQ  R13, R10
	ADDQ  R13, R11
	ZERO4
	XORQ  AX, AX
	CMPQ  AX, R12
	JAE   gtail

gblock:
	BLOCK4
	ADDQ $32, AX
	CMPQ AX, R12
	JB   gblock

gtail:
	CMPQ AX, CX
	JAE  gsum
	TAIL4

gsum:
	MOVQ (BX), AX
	HSUM(Y0, X0, (DX)(AX*8))
	MOVQ 8(BX), AX
	HSUM(Y1, X1, (DX)(AX*8))
	MOVQ 16(BX), AX
	HSUM(Y2, X2, (DX)(AX*8))
	MOVQ 24(BX), AX
	HSUM(Y3, X3, (DX)(AX*8))
	ADDQ $32, BX
	DECQ R8
	JNZ  gstep
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32: the low half of XCR0
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
