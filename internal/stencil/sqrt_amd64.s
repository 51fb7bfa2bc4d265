#include "textflag.h"

// func sqrtSteady(rows *[sqrtGroup][]float64, north, roots []float64, last *[sqrtGroup]float64)
//
// X0..X3 hold the eight rows' latest values, rows 2m and 2m+1 in the low and
// high lane of Xm. Each step takes their roots with four SQRTPD, shifts the
// roots one row down (row 0's north root from north into lane 0) to form the
// north roots, and adds west + north, then + the row's own root, with ADDPD:
// per lane the same IEEE operations, in the same order, as Eval's scalar sum.
//
// Registers: AX BX CX DX SI R8 R9 R10 the row pointers, DI north, R11 the
// roots of the current step, R12 the byte offset into the rows and north,
// R13 its end.
TEXT ·sqrtSteady(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), DI
	MOVQ 0(DI), AX
	MOVQ 24(DI), BX
	MOVQ 48(DI), CX
	MOVQ 72(DI), DX
	MOVQ 96(DI), SI
	MOVQ 120(DI), R8
	MOVQ 144(DI), R9
	MOVQ 168(DI), R10
	MOVQ north_base+8(FP), DI
	MOVQ north_len+16(FP), R13
	MOVQ roots_base+32(FP), R11
	MOVQ last+56(FP), R12
	MOVUPD 0(R12), X0
	MOVUPD 16(R12), X1
	MOVUPD 32(R12), X2
	MOVUPD 48(R12), X3
	SHLQ $3, R13
	XORQ R12, R12
	CMPQ R12, R13
	JGE  done

loop:
	// The rows' own roots, which are also the west roots of the next plane.
	SQRTPD X0, X0
	SQRTPD X1, X1
	SQRTPD X2, X2
	SQRTPD X3, X3
	MOVUPD X0, 0(R11)
	MOVUPD X1, 16(R11)
	MOVUPD X2, 32(R11)
	MOVUPD X3, 48(R11)

	// North roots: (north, q0), (q1, q2), (q3, q4), (q5, q6).
	MOVSD    (DI)(R12*1), X4
	UNPCKLPD X0, X4
	MOVAPD   X0, X5
	SHUFPD   $1, X1, X5
	MOVAPD   X1, X6
	SHUFPD   $1, X2, X6
	MOVAPD   X2, X7
	SHUFPD   $1, X3, X7

	// (west + north) + own root.
	MOVUPD 64(R11), X8
	MOVUPD 80(R11), X9
	MOVUPD 96(R11), X10
	MOVUPD 112(R11), X11
	ADDPD  X4, X8
	ADDPD  X5, X9
	ADDPD  X6, X10
	ADDPD  X7, X11
	ADDPD  X0, X8
	ADDPD  X1, X9
	ADDPD  X2, X10
	ADDPD  X3, X11

	MOVSD  X8, (AX)(R12*1)
	MOVHPD X8, (BX)(R12*1)
	MOVSD  X9, (CX)(R12*1)
	MOVHPD X9, (DX)(R12*1)
	MOVSD  X10, (SI)(R12*1)
	MOVHPD X10, (R8)(R12*1)
	MOVSD  X11, (R9)(R12*1)
	MOVHPD X11, (R10)(R12*1)
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2
	MOVAPD X11, X3

	ADDQ $64, R11
	ADDQ $8, R12
	CMPQ R12, R13
	JLT  loop

done:
	MOVQ   last+56(FP), R12
	MOVUPD X0, 0(R12)
	MOVUPD X1, 16(R12)
	MOVUPD X2, 32(R12)
	MOVUPD X3, 48(R12)
	RET

// func sqrtRow(dst, src []float64)
//
// dst[x] = √src[x] for x < len(src), two at a time; dst is at least as long
// as src.
TEXT ·sqrtRow(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-2, DX
	SHLQ $3, DX
	SHLQ $3, CX
	CMPQ AX, DX
	JGE  tail

pairs:
	MOVUPD (SI)(AX*1), X0
	SQRTPD X0, X0
	MOVUPD X0, (DI)(AX*1)
	ADDQ   $16, AX
	CMPQ   AX, DX
	JLT    pairs

tail:
	CMPQ   AX, CX
	JGE    end
	MOVSD  (SI)(AX*1), X0
	SQRTSD X0, X0
	MOVSD  X0, (DI)(AX*1)

end:
	RET
