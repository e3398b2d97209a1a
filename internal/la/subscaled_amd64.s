#include "textflag.h"

// tailmask<>+32-8r is the VMASKMOVPD mask of a block's first r lanes.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func subScaledRowsAVX2(y, x, m []float64, ystride, xstride, mstride, n0, dn, rows int, d float64, nd int)
//
// First x[t] /= d for t < nd (VDIVPD, correctly rounded like DIVSD). Then
// row r < rows, with m_r = m[r·mstride], is skipped when m_r == 0 (UCOMISD:
// equal and ordered, so ±0 skips and NaN does not); otherwise
// y[r·ystride+t] −= x[r·xstride+t]·m_r for t < n0−r·dn: eight values per
// iteration in two four-lane blocks, then one more block of four if four
// remain, then the last one to three values in a VMASKMOVPD block, which
// neither reads nor writes the lanes past the row. VMULPD and VSUBPD round
// each product and each difference separately, as the scalar loop does; a
// fused multiply-add would not. The operand order is the compiled scalar
// loop's (MULSD m into x, SUBSD p from y, DIVSD d into x), so that when
// both operands are NaN the surviving payload is the same one.
TEXT ·subScaledRowsAVX2(SB), NOSPLIT, $0-136
	LEAQ  tailmask<>(SB), R13
	MOVQ  x_base+24(FP), SI
	MOVQ  nd+128(FP), CX
	TESTQ CX, CX
	JLE   rows
	VBROADCASTSD d+120(FP), Y0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-4, DX
	JZ    divtail

div4:
	VMOVUPD (SI)(AX*8), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      div4

divtail:
	ANDQ       $3, CX
	JZ         rows
	NEGQ       CX
	VMOVDQU    32(R13)(CX*8), Y5
	VMASKMOVPD (SI)(AX*8), Y5, Y1
	VDIVPD     Y0, Y1, Y1
	VMASKMOVPD Y1, Y5, (SI)(AX*8)

rows:
	MOVQ  rows+112(FP), BX
	TESTQ BX, BX
	JLE   done
	MOVQ  y_base+0(FP), DI
	MOVQ  m_base+48(FP), R8
	MOVQ  ystride+72(FP), R9
	SHLQ  $3, R9
	MOVQ  xstride+80(FP), R10
	SHLQ  $3, R10
	MOVQ  mstride+88(FP), R11
	SHLQ  $3, R11
	MOVQ  n0+96(FP), CX
	MOVQ  dn+104(FP), R12
	VXORPD X6, X6, X6

row:
	VBROADCASTSD (R8), Y0
	VUCOMISD     X6, X0
	JNE          update
	JPC          next

update:
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   block4

loop8:
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
	CMPQ    AX, DX
	JB      loop8

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
	MOVQ       CX, R14
	ANDQ       $3, R14
	JZ         next
	NEGQ       R14
	VMOVDQU    32(R13)(R14*8), Y5
	VMASKMOVPD (SI)(AX*8), Y5, Y1
	VMULPD     Y0, Y1, Y1
	VMASKMOVPD (DI)(AX*8), Y5, Y2
	VSUBPD     Y1, Y2, Y2
	VMASKMOVPD Y2, Y5, (DI)(AX*8)

next:
	ADDQ R9, DI
	ADDQ R10, SI
	ADDQ R11, R8
	SUBQ R12, CX
	DECQ BX
	JNZ  row

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the OS
// saves the YMM state: CPUID leaf 1 reports OSXSAVE and AVX (ECX bits 27
// and 28), and XCR0 enables the SSE and AVX state (bits 1 and 2). The
// band-LU kernels also need POPCNT (leaf 1, ECX bit 23), which every AVX2
// CPU has.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18800000, CX
	CMPL  CX, $0x18800000
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
