//go:build amd64 && !purego

// AVX2 block draw for GlibcRand.FillWords; see glibc_amd64.go for the
// Go side. Word m of a draw takes three recurrence values: write c_t[m]
// for its field t (a, b or c). The recurrence r[i] = r[i-3] + r[i-31]
// then reads, field by field,
//
//	c_0[m] = c_0[m-1] + c_2[m-11]
//	c_1[m] = c_1[m-1] + c_0[m-10]
//	c_2[m] = c_2[m-1] + c_1[m-10]
//
// so the next eight words of a field are a running sum of values the
// two blocks of eight before them already hold: an 8-lane prefix sum.
// Y0/Y1 hold field 0's two blocks, Y2/Y3 field 1's and Y4/Y5 field
// 2's. Each block is computed into the older block's register, so the
// loop body runs twice with the roles swapped, and so does the exit.

#include "textflag.h"

// SCAN sets o to the running sum of k's lanes (k is clobbered) plus n's
// last lane: in each 128-bit half, each even lane to the odd lane above
// it (VPSLLQ), then lane 1 to lanes 2 and 3; lane 3 to the upper half
// (VPERMD by Y13, all 3s); n's last lane to all (VPERMD by Y15, all
// 7s). Y12 is zero. The shuffle port bounds the loop: three shuffles.
#define SCAN(k, n, o) \
	VPSLLQ   $32, k, Y9; \
	VPADDD   Y9, k, k; \
	VPSHUFD  $0x50, k, Y9; \
	VPBLENDD $0x33, Y12, Y9, Y9; \
	VPADDD   Y9, k, k; \
	VPERMD   k, Y13, Y9; \
	VPBLENDD $0x0F, Y12, Y9, Y9; \
	VPADDD   Y9, k, k; \
	VPERMD   n, Y15, Y9; \
	VPADDD   Y9, k, o

// BLOCK computes each field's next block into o0-o2 from its older (o)
// and newer (n) blocks: field 0 adds c_2 shifted by 5 lanes, fields 1
// and 2 add c_0 and c_1 shifted by 6 (one VPERM2I128 and one VPALIGNR
// each). It then stores the eight words at DI, packed as a high dword
// a&^1 | b>>31 and a low dword (b>>1)<<2 | (c>>1)&3 (Y14 holds ^1, Y13
// holds 3).
#define BLOCK(o0, n0, o1, n1, o2, n2) \
	VPERM2I128   $0x21, n2, o2, Y6; \
	VPALIGNR     $4, Y6, n2, Y6; \
	VPERM2I128   $0x21, n0, o0, Y7; \
	VPALIGNR     $8, Y7, n0, Y7; \
	VPERM2I128   $0x21, n1, o1, Y8; \
	VPALIGNR     $8, Y8, n1, Y8; \
	SCAN(Y6, n0, o0); \
	SCAN(Y7, n1, o1); \
	SCAN(Y8, n2, o2); \
	VPAND        Y14, o0, Y6; \
	VPSRLD       $31, o1, Y7; \
	VPOR         Y7, Y6, Y6; \
	VPSRLD       $1, o1, Y7; \
	VPSLLD       $2, Y7, Y7; \
	VPSRLD       $1, o2, Y8; \
	VPAND        Y13, Y8, Y8; \
	VPOR         Y8, Y7, Y7; \
	VPUNPCKLDQ   Y6, Y7, Y8; \
	VPUNPCKHDQ   Y6, Y7, Y9; \
	VMOVDQU      X8, (DI); \
	VMOVDQU      X9, 16(DI); \
	VEXTRACTI128 $1, Y8, 32(DI); \
	VEXTRACTI128 $1, Y9, 48(DI); \
	ADDQ         $64, DI

DATA stride3<>+0(SB)/8, $0x0000000300000000
DATA stride3<>+8(SB)/8, $0x0000000900000006
DATA stride3<>+16(SB)/8, $0x0000000f0000000c
DATA stride3<>+24(SB)/8, $0x0000001500000012
GLOBL stride3<>(SB), RODATA|NOPTR, $32

// GATHER loads lanes 0, 3, ..., 21 from off(SI) into dst.
#define GATHER(off, dst) \
	VPCMPEQD   Y10, Y10, Y10; \
	VPGATHERDD Y10, off(SI)(Y11*4), dst

// STORE writes each field's older block o and newer block n to f at SI.
#define STORE(o0, n0, o1, n1, o2, n2) \
	VMOVDQU o0, (SI); \
	VMOVDQU n0, 32(SI); \
	VMOVDQU o1, 64(SI); \
	VMOVDQU n1, 96(SI); \
	VMOVDQU o2, 128(SI); \
	VMOVDQU n2, 160(SI); \
	VZEROUPPER

// func feedBlocks(r *uint32, f *[48]uint32, dst []uint64)
TEXT ·feedBlocks(SB), NOSPLIT, $0-40
	MOVQ    r+0(FP), SI
	MOVQ    f+8(FP), DX
	MOVQ    dst_base+16(FP), DI
	MOVQ    dst_len+24(FP), CX
	SHRQ    $3, CX
	VMOVDQU stride3<>(SB), Y11
	GATHER(0, Y0)
	GATHER(96, Y1)
	GATHER(4, Y2)
	GATHER(100, Y3)
	GATHER(8, Y4)
	GATHER(104, Y5)
	VPXOR    Y12, Y12, Y12
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $30, Y15, Y13
	VPSLLD   $1, Y15, Y14
	VPSRLD   $29, Y15, Y15
	MOVQ     DX, SI

loop:
	BLOCK(Y0, Y1, Y2, Y3, Y4, Y5)
	DECQ CX
	JZ   odd
	BLOCK(Y1, Y0, Y3, Y2, Y5, Y4)
	DECQ CX
	JNZ  loop
	STORE(Y0, Y1, Y2, Y3, Y4, Y5)
	RET

odd:
	STORE(Y1, Y0, Y3, Y2, Y5, Y4)
	RET
