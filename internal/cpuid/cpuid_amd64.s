//go:build amd64 && !purego

#include "textflag.h"

// func avx2() bool
TEXT ·avx2(SB), NOSPLIT, $0-1
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
