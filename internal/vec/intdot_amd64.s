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

	// Y15 = lane i is all ones where i < dims%8: the tail's load mask.
	MOVQ         $0x0706050403020100, AX
	VMOVQ        AX, X14
	VPMOVZXBD    X14, Y14
	MOVQ         CX, AX
	ANDQ         $7, AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15
	VPCMPGTD     Y14, Y15, Y15

	// CX = bytes in a row, R12 = bytes of it in whole blocks. SI, R9, R10,
	// R11 = the step's row in each quarter of the slab, h rows apart; DX,
	// DX+BX, DX+2·BX, DX+R13 = their slots in dst.
	SHLQ  $2, CX
	MOVQ  CX, R12
	ANDQ  $-32, R12
	MOVQ  BX, R11
	IMULQ CX, R11
	LEAQ  (SI)(R11*1), R9
	LEAQ  (R9)(R11*1), R10
	LEAQ  (R10)(R11*1), R11
	SHLQ  $3, BX
	LEAQ  (BX)(BX*2), R13

step:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX
	CMPQ  AX, R12
	JAE   tail

block:
	VMOVDQU (DI)(AX*1), Y4
	VPSRLQ  $32, Y4, Y5
	BLOCK(SI, Y0)
	BLOCK(R9, Y1)
	BLOCK(R10, Y2)
	BLOCK(R11, Y3)
	ADDQ    $32, AX
	CMPQ    AX, R12
	JB      block

tail:
	CMPQ       AX, CX
	JAE        sum
	VPMASKMOVD (DI)(AX*1), Y15, Y4
	VPSRLQ     $32, Y4, Y5
	TAIL(SI, Y0)
	TAIL(R9, Y1)
	TAIL(R10, Y2)
	TAIL(R11, Y3)

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
