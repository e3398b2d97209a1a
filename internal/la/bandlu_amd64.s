#include "textflag.h"

// lanemask<>+56-8m, for −3 ≤ m ≤ 7, is the VMASKMOVPD mask of a block's
// first m lanes: none when m ≤ 0, all four when m ≥ 4.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $-1
DATA lanemask<>+40(SB)/8, $-1
DATA lanemask<>+48(SB)/8, $-1
DATA lanemask<>+56(SB)/8, $0
DATA lanemask<>+64(SB)/8, $0
DATA lanemask<>+72(SB)/8, $0
DATA lanemask<>+80(SB)/8, $0
DATA lanemask<>+88(SB)/8, $0
DATA lanemask<>+96(SB)/8, $0
DATA lanemask<>+104(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $112

// SSTEP is one scalar update of the triangle: y −= u·l unless l == 0. The
// compare (NEQ_UQ: not equal or unordered) keeps y where l is ±0 and
// applies a NaN l; the blend, not a branch, keeps y's bits exactly.
#define SSTEP(u, lmem, y) \
	VMOVSD    lmem, X4; \
	VCMPSD    $4, X15, X4, X5; \
	VMULSD    X4, u, X4; \
	VSUBSD    X4, y, X4; \
	VBLENDVPD X5, X4, y, y

// LSTEP loads step t's multipliers of the current four rows from lmem into
// l and sets mask to the lanes whose multiplier is not ±0 (NEQ_UQ: not
// equal or unordered, so a NaN multiplier is applied).
#define LSTEP(lmem, l, mask) \
	VMOVUPD lmem, l; \
	VCMPPD  $4, Y15, l, mask

// MLSTEP is LSTEP reading only the lanes lanes selects; the others load +0,
// which the compare then leaves out of mask.
#define MLSTEP(lmem, lanes, l, mask) \
	VMOVDQU    lanes, Y14; \
	VMASKMOVPD lmem, Y14, l; \
	VCMPPD     $4, Y15, l, mask

// CSTEP is one step on one column's four rows in Y8: u is broadcast from
// umem, and Y8 −= u·l lane by lane except where mask is clear, where the
// blend keeps Y8's bits.
#define CSTEP(umem, l, mask) \
	VBROADCASTSD umem, Y9; \
	VMULPD       l, Y9, Y9; \
	VSUBPD       Y9, Y8, Y9; \
	VBLENDVPD    mask, Y9, Y8, Y8

// FSTEP is CSTEP for a block whose multipliers are all non-zero, so every
// lane takes the update and no blend is needed.
#define FSTEP(umem, l) \
	VBROADCASTSD umem, Y9; \
	VMULPD       l, Y9, Y9; \
	VSUBPD       Y9, Y8, Y8

// FSSTEP is SSTEP for a non-zero multiplier.
#define FSSTEP(u, lmem, y) \
	VMULSD lmem, u, X4; \
	VSUBSD X4, y, y

// F8STEP is FSTEP on eight rows, Y8 and Y10, with step t's multipliers in
// la and lb.
#define F8STEP(umem, la, lb) \
	VBROADCASTSD umem, Y9; \
	VMULPD       la, Y9, Y11; \
	VMULPD       lb, Y9, Y9; \
	VSUBPD       Y11, Y8, Y8; \
	VSUBPD       Y9, Y10, Y10

// ANDNZ clears the lanes of Y8 where l is ±0.
#define ANDNZ(l) \
	VCMPPD $4, Y15, l, Y9; \
	VANDPD Y9, Y8, Y8

// ALLSET jumps to label when the masks m1…m4 are all four lanes set.
#define ALLSET(m1, m2, m3, m4, label) \
	VANDPD    m1, m2, Y11; \
	VANDPD    m3, Y11, Y11; \
	VANDPD    m4, Y11, Y11; \
	VMOVMSKPD Y11, BX; \
	CMPQ      BX, $15; \
	JEQ       label

// func bandUpdateAVX2(c, l []float64, stride, cols, steps, e, ragged int)
//
// bandUpdate's kernel. steps == 1 goes column by column (its callers pass
// one to three columns) and updates rows 1…e−1 with u = row 0. steps == 4
// first runs every column's triangle, rows 1…3, in scalar (each row's u
// is that row once the earlier steps are applied), then walks blocks of
// rows from 4 on, and within a block every column, so the block's
// multipliers and their ±0 masks are loaded once and held in registers:
// eight rows at a time while none of their multipliers is ±0, else four
// with a blend, each through all four steps in step order, and the ragged
// columns after the rest through the steps that reach them. The last one
// or two blocks load and store only the lanes a step reaches (row
// r < e+t) under VMASKMOVPD masks. VMULPD and VSUBPD round each product
// and each difference separately, as the scalar loop does; a fused
// multiply-add would not. The operand order is u·l and y − u·l, that of
// bandUpdateGo and of the row-major factor the tests hold this one to, so
// that when both operands are NaN the surviving payload is the same one.
TEXT ·bandUpdateAVX2(SB), NOSPLIT, $0-88
	MOVQ   c_base+0(FP), SI
	MOVQ   l_base+24(FP), R10
	MOVQ   stride+48(FP), R8
	SHLQ   $3, R8
	MOVQ   e+72(FP), DX
	LEAQ   lanemask<>(SB), R9
	VXORPD Y15, Y15, Y15
	CMPQ   steps+64(FP), $1
	JNE    four

	// One step, column by column: u = row 0 is broadcast once per column,
	// rows 1…e−1 go four at a time, and the last one to three under the
	// mask in Y7, with their multipliers loaded and compared once.
	MOVQ       cols+56(FP), CX
	LEAQ       -1(DX), R11
	MOVQ       R11, R12
	ANDQ       $3, R12
	SUBQ       R12, R11
	INCQ       R11
	NEGQ       R12
	VMOVDQU    56(R9)(R12*8), Y7
	VMASKMOVPD (R10)(R11*8), Y7, Y6
	VCMPPD     $4, Y15, Y6, Y5

onecol:
	VBROADCASTSD (SI), Y0
	MOVQ         $1, AX

oneblock:
	CMPQ      AX, R11
	JGE       onetail
	VMOVUPD   (R10)(AX*8), Y1
	VCMPPD    $4, Y15, Y1, Y2
	VMULPD    Y1, Y0, Y1
	VMOVUPD   (SI)(AX*8), Y8
	VSUBPD    Y1, Y8, Y1
	VBLENDVPD Y2, Y1, Y8, Y8
	VMOVUPD   Y8, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       oneblock

onetail:
	TESTQ      R12, R12
	JZ         onenext
	VMASKMOVPD (SI)(AX*8), Y7, Y8
	VMULPD     Y6, Y0, Y1
	VSUBPD     Y1, Y8, Y1
	VBLENDVPD  Y5, Y1, Y8, Y8
	VMASKMOVPD Y8, Y7, (SI)(AX*8)

onenext:
	ADDQ R8, SI
	DECQ CX
	JNZ  onecol
	JMP  done

four:
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	MOVQ SI, DI
	MOVQ cols+56(FP), CX

	// The triangle's six multipliers are lanes 1…3 of step 0's first
	// four, lanes 2…3 of step 1's and lane 3 of step 2's; when none is
	// ±0 the triangle needs no compare or blend.
	LSTEP((R10), Y0, Y4)
	LSTEP((R11), Y1, Y5)
	LSTEP((R12), Y2, Y6)
	VMOVMSKPD Y4, BX
	VMOVMSKPD Y5, R14
	SHLQ      $4, R14
	ORQ       R14, BX
	VMOVMSKPD Y6, R14
	SHLQ      $8, R14
	ORQ       R14, BX
	ANDQ      $0x8ce, BX
	CMPQ      BX, $0x8ce
	JEQ       trianglefast

triangle:
	VMOVSD (DI), X0
	VMOVSD 8(DI), X1
	VMOVSD 16(DI), X2
	VMOVSD 24(DI), X3
	SSTEP(X0, 8(R10), X1)
	SSTEP(X0, 16(R10), X2)
	SSTEP(X0, 24(R10), X3)
	SSTEP(X1, 16(R11), X2)
	SSTEP(X1, 24(R11), X3)
	SSTEP(X2, 24(R12), X3)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ   R8, DI
	DECQ   CX
	JNZ    triangle
	JMP    triragged

trianglefast:
	VMOVSD (DI), X0
	VMOVSD 8(DI), X1
	VMOVSD 16(DI), X2
	VMOVSD 24(DI), X3
	FSSTEP(X0, 8(R10), X1)
	FSSTEP(X0, 16(R10), X2)
	FSSTEP(X0, 24(R10), X3)
	FSSTEP(X1, 16(R11), X2)
	FSSTEP(X1, 24(R11), X3)
	FSSTEP(X2, 24(R12), X3)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ   R8, DI
	DECQ   CX
	JNZ    trianglefast

	// The ragged columns' triangles: the first skips step 0, so rows 2 and
	// 3 take step 1 and row 3 step 2; the second takes only step 2 on row
	// 3; the third has no triangle work.
triragged:
	CMPQ   ragged+80(FP), $0
	JEQ    rect
	VMOVSD 8(DI), X1
	VMOVSD 16(DI), X2
	VMOVSD 24(DI), X3
	SSTEP(X1, 16(R11), X2)
	SSTEP(X1, 24(R11), X3)
	SSTEP(X2, 24(R12), X3)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ   R8, DI
	VMOVSD 16(DI), X2
	VMOVSD 24(DI), X3
	SSTEP(X2, 24(R12), X3)
	VMOVSD X3, 24(DI)

rect:
	MOVQ $4, AX

	// Eight rows at a time while they all take every step and no
	// multiplier of theirs is ±0: two blocks share each broadcast u.
block8:
	LEAQ      8(AX), BX
	CMPQ      BX, DX
	JGT       block4
	VMOVUPD   (R10)(AX*8), Y0
	VMOVUPD   (R11)(AX*8), Y1
	VMOVUPD   (R12)(AX*8), Y2
	VMOVUPD   (R13)(AX*8), Y3
	VMOVUPD   32(R10)(AX*8), Y4
	VMOVUPD   32(R11)(AX*8), Y5
	VMOVUPD   32(R12)(AX*8), Y6
	VMOVUPD   32(R13)(AX*8), Y7
	VCMPPD    $4, Y15, Y0, Y8
	ANDNZ(Y1)
	ANDNZ(Y2)
	ANDNZ(Y3)
	ANDNZ(Y4)
	ANDNZ(Y5)
	ANDNZ(Y6)
	ANDNZ(Y7)
	VMOVMSKPD Y8, BX
	CMPQ      BX, $15
	JNE       block4
	MOVQ      SI, DI
	MOVQ      cols+56(FP), CX

block8col:
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y10
	F8STEP((DI), Y0, Y4)
	F8STEP(8(DI), Y1, Y5)
	F8STEP(16(DI), Y2, Y6)
	F8STEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y10, 32(DI)(AX*8)
	ADDQ    R8, DI
	DECQ    CX
	JNZ     block8col
	CMPQ    ragged+80(FP), $0
	JEQ     next8
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y10
	F8STEP(8(DI), Y1, Y5)
	F8STEP(16(DI), Y2, Y6)
	F8STEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y10, 32(DI)(AX*8)
	ADDQ    R8, DI
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y10
	F8STEP(16(DI), Y2, Y6)
	F8STEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y10, 32(DI)(AX*8)
	ADDQ    R8, DI
	VMOVUPD (DI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y10
	F8STEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y10, 32(DI)(AX*8)

next8:
	ADDQ $8, AX
	JMP  block8

block4:
	LEAQ 4(AX), BX
	CMPQ BX, DX
	JGT  tail4
	LSTEP((R10)(AX*8), Y0, Y4)
	LSTEP((R11)(AX*8), Y1, Y5)
	LSTEP((R12)(AX*8), Y2, Y6)
	LSTEP((R13)(AX*8), Y3, Y7)
	MOVQ SI, DI
	MOVQ cols+56(FP), CX
	ALLSET(Y4, Y5, Y6, Y7, block4fast)

block4col:
	VMOVUPD (DI)(AX*8), Y8
	CSTEP((DI), Y0, Y4)
	CSTEP(8(DI), Y1, Y5)
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    R8, DI
	DECQ    CX
	JNZ     block4col
	JMP     ragged4

block4fast:
	VMOVUPD (DI)(AX*8), Y8
	FSTEP((DI), Y0)
	FSTEP(8(DI), Y1)
	FSTEP(16(DI), Y2)
	FSTEP(24(DI), Y3)
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    R8, DI
	DECQ    CX
	JNZ     block4fast

	// The ragged columns of a block of four: the first skips step 0, the
	// second steps 0 and 1, the third steps 0 to 2.
ragged4:
	CMPQ    ragged+80(FP), $0
	JEQ     next4
	VMOVUPD (DI)(AX*8), Y8
	CSTEP(8(DI), Y1, Y5)
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    R8, DI
	VMOVUPD (DI)(AX*8), Y8
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    R8, DI
	VMOVUPD (DI)(AX*8), Y8
	CSTEP(24(DI), Y3, Y7)
	VMOVUPD Y8, (DI)(AX*8)

next4:
	ADDQ $4, AX
	JMP  block8

	// The last blocks: m = e−AX rows take every step, and step t reaches
	// m+t rows; the mask of the first m+t lanes sits 8t bytes before
	// that of the first m.
tail4:
	MOVQ DX, BX
	SUBQ AX, BX
	CMPQ BX, $-3
	JLE  done
	NEGQ BX
	LEAQ 56(R9)(BX*8), BX
	MLSTEP((R10)(AX*8), (BX), Y0, Y4)
	MLSTEP((R11)(AX*8), -8(BX), Y1, Y5)
	MLSTEP((R12)(AX*8), -16(BX), Y2, Y6)
	MLSTEP((R13)(AX*8), -24(BX), Y3, Y7)
	VMOVDQU -24(BX), Y10
	MOVQ    SI, DI
	MOVQ    cols+56(FP), CX

tail4col:
	VMASKMOVPD (DI)(AX*8), Y10, Y8
	CSTEP((DI), Y0, Y4)
	CSTEP(8(DI), Y1, Y5)
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMASKMOVPD Y8, Y10, (DI)(AX*8)
	ADDQ       R8, DI
	DECQ       CX
	JNZ        tail4col
	CMPQ       ragged+80(FP), $0
	JEQ        nexttail
	VMASKMOVPD (DI)(AX*8), Y10, Y8
	CSTEP(8(DI), Y1, Y5)
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMASKMOVPD Y8, Y10, (DI)(AX*8)
	ADDQ       R8, DI
	VMASKMOVPD (DI)(AX*8), Y10, Y8
	CSTEP(16(DI), Y2, Y6)
	CSTEP(24(DI), Y3, Y7)
	VMASKMOVPD Y8, Y10, (DI)(AX*8)
	ADDQ       R8, DI
	VMASKMOVPD (DI)(AX*8), Y10, Y8
	CSTEP(24(DI), Y3, Y7)
	VMASKMOVPD Y8, Y10, (DI)(AX*8)

nexttail:
	ADDQ $4, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func bandPanelAVX2(x []float64, ld, e, last int, nz *[4]int) (nb, stop int)
//
// bandPanel's kernel: the pivot search, division and window update of
// each of a panel's four steps in one call. Step m's column holds its
// e_m = min(e, last−m+1) rows from the diagonal at x[m·ld:]. The search
// takes the largest |x| with VMAXPD, whose second operand (the running
// maximum) wins when the first is a NaN, so NaNs never win, and the pivot
// is the diagonal when it equals that maximum: the first index the scalar
// search's strict > keeps. A NaN diagonal stands. A zero maximum stops
// with stop = 2, a pivot off the diagonal with stop = 1. Otherwise rows
// 1…e_m−1 are divided by the pivot (VDIVPD, correctly rounded like DIVSD,
// l / pivot), their quotients that compare not equal to zero (NEQ_UQ, so
// a NaN counts) are counted with VMOVMSKPD and POPCNT into nz[m], and the
// panel's later columns, from row m down, take the step: y −= u·l four
// rows at a time, the last one to three under a VMASKMOVPD mask, with a
// VBLENDVPD keeping the lanes whose l is ±0, as bandUpdateAVX2's one-step
// path does.
TEXT ·bandPanelAVX2(SB), NOSPLIT, $0-72
	MOVQ         x_base+0(FP), SI
	MOVQ         ld+24(FP), R8
	SHLQ         $3, R8
	LEAQ         -8(R8), R10
	MOVQ         nz+48(FP), R14
	LEAQ         lanemask<>(SB), R9
	VBROADCASTSD absmask<>(SB), Y14
	VXORPD       Y15, Y15, Y15
	XORQ         CX, CX

panelstep:
	// e_m = min(e, last−m+1) rows; rows 1…e_m−1 go four at a time up to
	// R11, then −R12 more under Y13.
	MOVQ    e+32(FP), DX
	MOVQ    last+40(FP), BX
	SUBQ    CX, BX
	INCQ    BX
	CMPQ    BX, DX
	CMOVQLT BX, DX
	LEAQ    -1(DX), R11
	MOVQ    R11, R12
	ANDQ    $3, R12
	SUBQ    R12, R11
	INCQ    R11
	NEGQ    R12
	VMOVDQU 56(R9)(R12*8), Y13

	// The pivot search over rows 0…e_m−1.
	VMOVSD   (SI), X0
	VUCOMISD X0, X0
	JPS      pscale
	VXORPD   Y0, Y0, Y0
	XORQ     AX, AX

pmax4:
	LEAQ   4(AX), BX
	CMPQ   BX, DX
	JGT    pmaxtail
	VANDPD (SI)(AX*8), Y14, Y1
	VMAXPD Y0, Y1, Y0
	ADDQ   $4, AX
	JMP    pmax4

pmaxtail:
	MOVQ       DX, BX
	SUBQ       AX, BX
	JLE        phmax
	NEGQ       BX
	VMOVDQU    56(R9)(BX*8), Y3
	VMASKMOVPD (SI)(AX*8), Y3, Y1
	VANDPD     Y14, Y1, Y1
	VMAXPD     Y0, Y1, Y0

phmax:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X1, X0, X0
	VUCOMISD     X15, X0
	JEQ          psingular
	VMOVSD       (SI), X1
	VANDPD       X14, X1, X1
	VUCOMISD     X0, X1
	JNE          pswap

	// The multipliers: rows 1…e−1 divided by the pivot, counting the
	// non-zero quotients into R13.
pscale:
	VBROADCASTSD (SI), Y0
	XORQ         R13, R13
	MOVQ         $1, AX

pdiv4:
	CMPQ      AX, R11
	JGE       pdivtail
	VMOVUPD   (SI)(AX*8), Y1
	VDIVPD    Y0, Y1, Y1
	VMOVUPD   Y1, (SI)(AX*8)
	VCMPPD    $4, Y15, Y1, Y2
	VMOVMSKPD Y2, BX
	POPCNTL   BX, BX
	ADDQ      BX, R13
	ADDQ      $4, AX
	JMP       pdiv4

pdivtail:
	TESTQ      R12, R12
	JZ         pcount
	VMASKMOVPD (SI)(AX*8), Y13, Y1
	VDIVPD     Y0, Y1, Y1
	VMASKMOVPD Y1, Y13, (SI)(AX*8)
	VCMPPD     $4, Y15, Y1, Y2
	VANDPD     Y13, Y2, Y2
	VMOVMSKPD  Y2, BX
	POPCNTL    BX, BX
	ADDQ       BX, R13

pcount:
	MOVQ R13, (R14)(CX*8)

	// The window: columns m+1…3 from row m down, one stride ld−1 apart,
	// take step m; the last rows' multipliers are loaded once.
	MOVQ       $3, BX
	SUBQ       CX, BX
	JZ         pnext
	LEAQ       (SI)(R10*1), DI
	VMASKMOVPD (SI)(R11*8), Y13, Y6
	VCMPPD     $4, Y15, Y6, Y5

pwincol:
	VBROADCASTSD (DI), Y0
	MOVQ         $1, AX

pwinblock:
	CMPQ      AX, R11
	JGE       pwintail
	VMOVUPD   (SI)(AX*8), Y1
	VCMPPD    $4, Y15, Y1, Y2
	VMULPD    Y1, Y0, Y1
	VMOVUPD   (DI)(AX*8), Y8
	VSUBPD    Y1, Y8, Y1
	VBLENDVPD Y2, Y1, Y8, Y8
	VMOVUPD   Y8, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       pwinblock

pwintail:
	TESTQ      R12, R12
	JZ         pwinnext
	VMASKMOVPD (DI)(AX*8), Y13, Y8
	VMULPD     Y6, Y0, Y1
	VSUBPD     Y1, Y8, Y1
	VBLENDVPD  Y5, Y1, Y8, Y8
	VMASKMOVPD Y8, Y13, (DI)(AX*8)

pwinnext:
	ADDQ R10, DI
	DECQ BX
	JNZ  pwincol

pnext:
	ADDQ R8, SI
	INCQ CX
	CMPQ CX, $4
	JB   panelstep
	MOVQ CX, nb+56(FP)
	MOVQ $0, stop+64(FP)
	VZEROUPPER
	RET

pswap:
	MOVQ CX, nb+56(FP)
	MOVQ $1, stop+64(FP)
	VZEROUPPER
	RET

psingular:
	MOVQ CX, nb+56(FP)
	MOVQ $2, stop+64(FP)
	VZEROUPPER
	RET
