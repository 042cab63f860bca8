//go:build amd64 && !purego

#include "textflag.h"

// func screenGroups(ws []uint64, pat, prev, rep uint64, edge, window int) (count, before int, triple bool)
//
// Per 32 bytes: VPCMPEQB of the bytes against themselves shifted up one
// byte (VPERM2I128 and VPALIGNR bring in the byte before, first prev's
// top byte) flags each byte equal to the one before it; the flags ANDed
// with themselves shifted the same way (first rep's top byte) are the
// triples. VPCMPEQB against the sample and VPSUBB count its bytes in
// byte lanes, Y8 for the open window and Y9 for the windows closed
// before it; VPSADBW adds the lanes up at the end. DX counts the groups
// to the next window edge, where Y8 moves into Y9 and the group's first
// byte becomes the sample.
TEXT ·screenGroups(SB), NOSPLIT, $0-81
	MOVQ         ws_base+0(FP), SI
	MOVQ         ws_len+8(FP), CX
	SHRQ         $2, CX
	MOVQ         edge+48(FP), DX
	VPBROADCASTQ pat+24(FP), Y7
	VPBROADCASTQ prev+32(FP), Y0
	VPBROADCASTQ rep+40(FP), Y4
	VPXOR        Y6, Y6, Y6
	VPXOR        Y8, Y8, Y8
	VPXOR        Y9, Y9, Y9

loop:
	TESTQ        DX, DX
	JNZ          group
	VPADDB       Y8, Y9, Y9
	VPXOR        Y8, Y8, Y8
	VPBROADCASTB (SI), Y7
	MOVQ         window+56(FP), DX

group:
	VMOVDQU    (SI), Y1
	VPERM2I128 $0x21, Y1, Y0, Y2
	VPALIGNR   $15, Y2, Y1, Y2
	VPCMPEQB   Y1, Y2, Y3
	VPERM2I128 $0x21, Y3, Y4, Y5
	VPALIGNR   $15, Y5, Y3, Y5
	VPAND      Y3, Y5, Y5
	VPOR       Y5, Y6, Y6
	VPCMPEQB   Y1, Y7, Y5
	VPSUBB     Y5, Y8, Y8
	VMOVDQA    Y1, Y0
	VMOVDQA    Y3, Y4
	ADDQ       $32, SI
	DECQ       DX
	DECQ       CX
	JNZ        loop

	VPXOR        Y0, Y0, Y0
	VPSADBW      Y0, Y8, Y8
	VPSADBW      Y0, Y9, Y9
	VPUNPCKLQDQ  Y9, Y8, Y1
	VPUNPCKHQDQ  Y9, Y8, Y2
	VPADDQ       Y2, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPADDQ       X2, X1, X1
	VMOVQ        X1, count+64(FP)
	VPEXTRQ      $1, X1, before+72(FP)
	VPTEST       Y6, Y6
	SETNE        triple+80(FP)
	VZEROUPPER
	RET
