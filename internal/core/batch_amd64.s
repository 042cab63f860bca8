//go:build amd64 && !purego

// AVX2 round kernel: sixteen Gabber–Galil walks advance through up to
// 32 numbers per call, reading their feed straight out of their bins,
// with every lane's x and y held in YMM registers throughout. See
// batch.go for the round loop and the bit-stream-compatibility
// contract, and batch_amd64.go for the Go side.
//
// Layout: Y0/Y1 hold x of lanes 0-7 / 8-15 as packed dwords, Y2/Y3 y.
// All lanes read their bins at the same bit offset, so one funnel
// shift by a register count serves every lane: Y4/Y5 hold the 64 feed
// bits at that offset for lanes 0,1,4,5 / 2,3,6,7 as packed qwords,
// Y6/Y7 the same for lanes 8-15. VSHUFPS $0xDD gathers the qwords' top
// dwords into lane order, ten 3-bit fields per lane, so the per-step
// work on the feed is one shift right (the field) and one shift left
// (the next field up).
//
// Neighbour selection is branchless via VPERMD used as an 8-entry
// 32-bit table: the 3-bit neighbour index b of each lane indexes the
// c / maskY / maskX tables in one instruction each, consuming fields in
// the same MSB-first order as the scalar walk.

#include "go_asm.h"
#include "textflag.h"

DATA tabC<>+0(SB)/4, $0
DATA tabC<>+4(SB)/4, $0
DATA tabC<>+8(SB)/4, $1
DATA tabC<>+12(SB)/4, $2
DATA tabC<>+16(SB)/4, $0
DATA tabC<>+20(SB)/4, $1
DATA tabC<>+24(SB)/4, $2
DATA tabC<>+28(SB)/4, $0
GLOBL tabC<>(SB), RODATA|NOPTR, $32

DATA tabY<>+0(SB)/4, $0
DATA tabY<>+4(SB)/4, $0xffffffff
DATA tabY<>+8(SB)/4, $0xffffffff
DATA tabY<>+12(SB)/4, $0xffffffff
DATA tabY<>+16(SB)/4, $0
DATA tabY<>+20(SB)/4, $0
DATA tabY<>+24(SB)/4, $0
DATA tabY<>+28(SB)/4, $0
GLOBL tabY<>(SB), RODATA|NOPTR, $32

DATA tabX<>+0(SB)/4, $0
DATA tabX<>+4(SB)/4, $0
DATA tabX<>+8(SB)/4, $0
DATA tabX<>+12(SB)/4, $0
DATA tabX<>+16(SB)/4, $0xffffffff
DATA tabX<>+20(SB)/4, $0xffffffff
DATA tabX<>+24(SB)/4, $0xffffffff
DATA tabX<>+28(SB)/4, $0
GLOBL tabX<>(SB), RODATA|NOPTR, $32

// LANE(j) is the byte offset of lane j's bin in a binGroup.
#define LANE(j) 8*(j)*const_binWords+8*(j)

// FUNNEL4 sets dst to the 64 bin bits at the word DX points into and
// the shift in X13 (64 minus it in X14) for lanes a, a+1, a+4, a+5: a
// shift count of 64 clears the second word's share, so a shift of 0
// needs no branch.
#define FUNNEL4(a, dst) \
	VMOVDQU     LANE(a)(DX), X10; \
	VINSERTI128 $1, LANE(a+4)(DX), Y10, Y10; \
	VMOVDQU     LANE(a+1)(DX), X11; \
	VINSERTI128 $1, LANE(a+5)(DX), Y11, Y11; \
	VPUNPCKLQDQ Y11, Y10, Y12; \
	VPUNPCKHQDQ Y11, Y10, Y10; \
	VPSLLQ      X13, Y12, Y12; \
	VPSRLQ      X14, Y10, Y10; \
	VPOR        Y10, Y12, dst

// STEP advances eight lanes (x, y) by one step, taking each lane's
// neighbour index from the top three bits of its dword in d and
// shifting the next field up: y += (2x + c) & maskY, then
// x += (2y + c) & maskX.
#define STEP(d, x, y) \
	VPSRLD $29, d, Y10; \
	VPSLLD $3, d, d; \
	VPERMD tabC<>(SB), Y10, Y11; \
	VPERMD tabY<>(SB), Y10, Y12; \
	VPERMD tabX<>(SB), Y10, Y10; \
	VPSLLD $1, x, Y13; \
	VPADDD Y11, Y13, Y13; \
	VPAND  Y12, Y13, Y13; \
	VPADDD Y13, y, y; \
	VPSLLD $1, y, Y13; \
	VPADDD Y11, Y13, Y13; \
	VPAND  Y10, Y13, Y13; \
	VPADDD Y13, x, x

// func walkLanes(bg *binGroup, x *[16]uint32, y *[16]uint32, off uint, k int, chunks int, tail int)
//
// Per number: chunks segments of 21 steps, then one of tail steps,
// each walked from the 64 bin bits at the current offset. The two
// eight-lane halves run in one loop so their independent x→y→x chains
// overlap in the out-of-order window; they share the temporaries Y10-Y13,
// which renaming makes free.
TEXT ·walkLanes(SB), NOSPLIT, $0-56
	MOVQ bg+0(FP), SI
	MOVQ x+8(FP), AX
	MOVQ y+16(FP), BX
	MOVQ off+24(FP), R8     // bit offset into every bin
	MOVQ k+32(FP), R9       // numbers left
	MOVQ chunks+40(FP), R10
	MOVQ tail+48(FP), R11
	LEAQ binGroup_out(SI), DI

	VMOVDQU (AX), Y0
	VMOVDQU 32(AX), Y1
	VMOVDQU (BX), Y2
	VMOVDQU 32(BX), Y3

number:
	MOVQ R10, R12 // chunks left in this number

segment:
	MOVQ  $21, CX // steps in this segment
	DECQ  R12
	JGE   take
	MOVQ  R11, CX // the chunks are done: the tail
	TESTQ CX, CX
	JZ    emit

take:
	MOVQ  R8, DX
	SHRQ  $6, DX
	LEAQ  (SI)(DX*8), DX
	MOVQ  R8, R13
	ANDQ  $63, R13
	VMOVQ R13, X13
	NEGQ  R13
	ADDQ  $64, R13
	VMOVQ R13, X14
	LEAQ  (CX)(CX*2), R13
	ADDQ  R13, R8
	FUNNEL4(0, Y4)
	FUNNEL4(2, Y5)
	FUNNEL4(8, Y6)
	FUNNEL4(10, Y7)

fields:
	// Up to ten fields per lane from the top dword of its bits.
	VSHUFPS $0xDD, Y5, Y4, Y8
	VSHUFPS $0xDD, Y7, Y6, Y9
	MOVQ    $10, DX
	CMPQ    CX, DX
	CMOVQLT CX, DX
	SUBQ    DX, CX

step:
	STEP(Y8, Y0, Y2)
	STEP(Y9, Y1, Y3)
	DECQ DX
	JNZ  step

	VPSLLQ $30, Y4, Y4
	VPSLLQ $30, Y5, Y5
	VPSLLQ $30, Y6, Y6
	VPSLLQ $30, Y7, Y7
	TESTQ  CX, CX
	JNZ    fields
	TESTQ  R12, R12
	JGE    segment

emit:
	// Row i of the block: x<<32 | y for lanes 0-15 in order.
	VPUNPCKLDQ Y0, Y2, Y10           // lanes 0,1 | 4,5
	VPUNPCKHDQ Y0, Y2, Y11           // lanes 2,3 | 6,7
	VPERM2I128 $0x20, Y11, Y10, Y12
	VPERM2I128 $0x31, Y11, Y10, Y13
	VMOVDQU    Y12, (DI)
	VMOVDQU    Y13, 32(DI)
	VPUNPCKLDQ Y1, Y3, Y10
	VPUNPCKHDQ Y1, Y3, Y11
	VPERM2I128 $0x20, Y11, Y10, Y12
	VPERM2I128 $0x31, Y11, Y10, Y13
	VMOVDQU    Y12, 64(DI)
	VMOVDQU    Y13, 96(DI)
	ADDQ       $(const_MaxBatchLanes*8), DI
	DECQ       R9
	JNZ        number

	VMOVDQU Y0, (AX)
	VMOVDQU Y1, 32(AX)
	VMOVDQU Y2, (BX)
	VMOVDQU Y3, 32(BX)
	VZEROUPPER
	RET
