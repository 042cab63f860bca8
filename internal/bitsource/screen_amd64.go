//go:build amd64 && !purego

package bitsource

import "repro/internal/cpuid"

// screenGroups is scan's AVX2 loop (screen_amd64.s), 32 bytes per
// iteration: it returns how many bytes of ws equal the sample pat holds
// in every byte, and whether a byte of ws ends three equal bytes in a
// row. The run carried
// in is prev's top byte, the byte before ws[0], and rep's top bit, set
// when that byte equals the one before it. len(ws) is a positive
// multiple of 4, at most 64, so no byte lane of the count overflows.
//
//go:noescape
func screenGroups(ws []uint64, pat, prev, rep uint64) (count int, triple bool)

// haveAVX2 gates the vector loop.
var haveAVX2 = cpuid.AVX2
