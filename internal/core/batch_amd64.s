//go:build amd64 && !purego

// AVX2 lockstep walk kernel: eight Gabber–Galil walks advance one
// 63-bit feed chunk (21 steps each) per call, with every lane held in
// YMM registers for the duration. See batch.go for the dispatch and
// the bit-stream-compatibility contract.
//
// Layout: x and y hold the eight lanes' coordinates as packed dwords
// (lane j = dword j); w holds the eight 63-bit feed chunks as packed
// qwords, split across two YMM registers (lanes 0-3 / 4-7).
//
// Neighbour selection is branchless via VPERMD used as an 8-entry
// 32-bit table: the 3-bit neighbour index b of each lane, packed to
// dwords, indexes the c / maskY / maskX tables in one instruction
// each. The feed chunk is pre-shifted left once (Bits(63) leaves bit
// 63 clear), so b is always the top three bits and a plain >>61
// extracts it with no masking; the chunk then shifts left 3 per step,
// consuming fields in the same MSB-first order as the scalar walk.

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

// Index vectors packing the qword-lane neighbour bits (dwords
// 0,2,4,6 of each half) into dwords 0-3 / 4-7 of one register.
DATA idxLo<>+0(SB)/4, $0
DATA idxLo<>+4(SB)/4, $2
DATA idxLo<>+8(SB)/4, $4
DATA idxLo<>+12(SB)/4, $6
DATA idxLo<>+16(SB)/4, $0
DATA idxLo<>+20(SB)/4, $0
DATA idxLo<>+24(SB)/4, $0
DATA idxLo<>+28(SB)/4, $0
GLOBL idxLo<>(SB), RODATA|NOPTR, $32

DATA idxHi<>+0(SB)/4, $0
DATA idxHi<>+4(SB)/4, $0
DATA idxHi<>+8(SB)/4, $0
DATA idxHi<>+12(SB)/4, $0
DATA idxHi<>+16(SB)/4, $0
DATA idxHi<>+20(SB)/4, $2
DATA idxHi<>+24(SB)/4, $4
DATA idxHi<>+28(SB)/4, $6
GLOBL idxHi<>(SB), RODATA|NOPTR, $32

// func step21x8(x *[8]uint32, y *[8]uint32, w *[8]uint64)
TEXT ·step21x8(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), AX
	MOVQ y+8(FP), BX
	MOVQ w+16(FP), DX

	VMOVDQU (AX), Y0        // x lanes
	VMOVDQU (BX), Y1        // y lanes
	VMOVDQU (DX), Y2        // chunks, lanes 0-3
	VMOVDQU 32(DX), Y3      // chunks, lanes 4-7
	VPSLLQ  $1, Y2, Y2      // bit 63 is clear; field k now at bits 63-61
	VPSLLQ  $1, Y3, Y3

	VMOVDQU tabC<>(SB), Y4
	VMOVDQU tabY<>(SB), Y5
	VMOVDQU tabX<>(SB), Y6
	VMOVDQU idxLo<>(SB), Y7
	VMOVDQU idxHi<>(SB), Y8

	MOVQ $21, CX

step:
	// b = top 3 bits of each lane's chunk, packed to dwords.
	VPSRLQ   $61, Y2, Y9
	VPSRLQ   $61, Y3, Y10
	VPSLLQ   $3, Y2, Y2
	VPSLLQ   $3, Y3, Y3
	VPERMD   Y9, Y7, Y9
	VPERMD   Y10, Y8, Y10
	VPBLENDD $0xf0, Y10, Y9, Y9

	// Table lookups: c, maskY, maskX — one VPERMD each.
	VPERMD Y4, Y9, Y11
	VPERMD Y5, Y9, Y12
	VPERMD Y6, Y9, Y13

	// y += (2x + c) & maskY; x += (2y + c) & maskX
	VPSLLD $1, Y0, Y14
	VPADDD Y11, Y14, Y14
	VPAND  Y12, Y14, Y14
	VPADDD Y14, Y1, Y1
	VPSLLD $1, Y1, Y14
	VPADDD Y11, Y14, Y14
	VPAND  Y13, Y14, Y14
	VPADDD Y14, Y0, Y0

	DECQ CX
	JNZ  step

	VMOVDQU Y0, (AX)
	VMOVDQU Y1, (BX)
	VZEROUPPER
	RET

// func step21x16(x *[16]uint32, y *[16]uint32, w *[16]uint64)
//
// Sixteen lanes as two eight-wide halves advanced inside one loop
// body. The point of fusing them (rather than calling step21x8
// twice) is latency: one eight-lane step is a serial ~8-cycle
// x→y→x chain, so a single half leaves the vector units mostly
// idle; with both halves' independent chains in flight the
// out-of-order core overlaps them and nearly doubles lane
// throughput. Halves reuse the same temp registers — renaming
// makes that free. Table lookups take their data operand straight
// from RODATA to keep the register budget at sixteen YMMs.
TEXT ·step21x16(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), AX
	MOVQ y+8(FP), BX
	MOVQ w+16(FP), DX

	VMOVDQU (AX), Y0        // x lanes 0-7
	VMOVDQU 32(AX), Y1      // x lanes 8-15
	VMOVDQU (BX), Y2        // y lanes 0-7
	VMOVDQU 32(BX), Y3      // y lanes 8-15
	VMOVDQU (DX), Y4        // chunks, lanes 0-3
	VMOVDQU 32(DX), Y5      // chunks, lanes 4-7
	VMOVDQU 64(DX), Y6      // chunks, lanes 8-11
	VMOVDQU 96(DX), Y7      // chunks, lanes 12-15
	VPSLLQ  $1, Y4, Y4      // bit 63 is clear; field k now at bits 63-61
	VPSLLQ  $1, Y5, Y5
	VPSLLQ  $1, Y6, Y6
	VPSLLQ  $1, Y7, Y7

	VMOVDQU idxLo<>(SB), Y8
	VMOVDQU idxHi<>(SB), Y9

	MOVQ $21, CX

step16:
	// Half A (lanes 0-7): b packed to dwords, table lookups, update.
	VPSRLQ   $61, Y4, Y10
	VPSRLQ   $61, Y5, Y11
	VPSLLQ   $3, Y4, Y4
	VPSLLQ   $3, Y5, Y5
	VPERMD   Y10, Y8, Y10
	VPERMD   Y11, Y9, Y11
	VPBLENDD $0xf0, Y11, Y10, Y10

	VPERMD tabC<>(SB), Y10, Y11
	VPERMD tabY<>(SB), Y10, Y12
	VPERMD tabX<>(SB), Y10, Y10

	VPSLLD $1, Y0, Y13
	VPADDD Y11, Y13, Y13
	VPAND  Y12, Y13, Y13
	VPADDD Y13, Y2, Y2
	VPSLLD $1, Y2, Y13
	VPADDD Y11, Y13, Y13
	VPAND  Y10, Y13, Y13
	VPADDD Y13, Y0, Y0

	// Half B (lanes 8-15): same dance, independent dependency chain.
	VPSRLQ   $61, Y6, Y10
	VPSRLQ   $61, Y7, Y11
	VPSLLQ   $3, Y6, Y6
	VPSLLQ   $3, Y7, Y7
	VPERMD   Y10, Y8, Y10
	VPERMD   Y11, Y9, Y11
	VPBLENDD $0xf0, Y11, Y10, Y10

	VPERMD tabC<>(SB), Y10, Y11
	VPERMD tabY<>(SB), Y10, Y12
	VPERMD tabX<>(SB), Y10, Y10

	VPSLLD $1, Y1, Y13
	VPADDD Y11, Y13, Y13
	VPAND  Y12, Y13, Y13
	VPADDD Y13, Y3, Y3
	VPSLLD $1, Y3, Y13
	VPADDD Y11, Y13, Y13
	VPAND  Y10, Y13, Y13
	VPADDD Y13, Y1, Y1

	DECQ CX
	JNZ  step16

	VMOVDQU Y0, (AX)
	VMOVDQU Y1, 32(AX)
	VMOVDQU Y2, (BX)
	VMOVDQU Y3, 32(BX)
	VZEROUPPER
	RET

// func cpuidAVX2() bool
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	// OSXSAVE must be set before XGETBV is legal.
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27), R8
	JZ   none

	// OS must save YMM state (XCR0 bits 1 and 2).
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  none

	// CPU must advertise AVX2 (leaf 7, EBX bit 5).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   none

	MOVB $1, ret+0(FP)
	RET

none:
	MOVB $0, ret+0(FP)
	RET
