#include "textflag.h"

// func subScaledAVX2(y, x []float64, m float64)
//
// y[t] −= x[t]·m for t < len(y): eight values per iteration in two
// four-lane blocks, then one more block of four if four remain, then one
// value at a time. VMULPD and VSUBPD round each product and each
// difference separately, as the scalar loop does; a fused multiply-add
// would not. The operand order is the compiled scalar loop's (MULSD m into
// x, SUBSD p from y), so that when both operands are NaN the surviving
// payload is the same one.
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD m+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

loop8:
	CMPQ    AX, DX
	JAE     block4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y3
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y3, Y3
	VMOVUPD (DI)(AX*8), Y2
	VMOVUPD 32(DI)(AX*8), Y4
	VSUBPD  Y1, Y2, Y2
	VSUBPD  Y3, Y4, Y4
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

block4:
	TESTQ   $4, CX
	JZ      tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ   AX, CX
	JAE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the OS
// saves the YMM state: CPUID leaf 1 reports OSXSAVE and AVX (ECX bits 27
// and 28), and XCR0 enables the SSE and AVX state (bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JZ    no
	MOVB  $1, ret+0(FP)

no:
	RET
