//go:build amd64 && !purego

package bitsource

import "repro/internal/cpuid"

// screenGroups is the AVX2 loop of scan and screen (screen_amd64.s),
// 32 bytes per iteration: it returns how many bytes of ws equal the
// sample pat holds in every byte, and whether a byte of ws ends three
// equal bytes in a row. The run carried in is prev's top byte, the byte
// before ws[0], and rep's top bit, set when that byte equals the one
// before it. An APT window opens at group edge (words 4·edge on) and
// every window groups after it: there the group's first byte becomes
// the sample, and the bytes counted so far move from count to before.
// An edge of len(ws)/4 or more opens none. len(ws) is a positive
// multiple of 4, at most 1020, so no byte lane of either count
// overflows.
//
//go:noescape
func screenGroups(ws []uint64, pat, prev, rep uint64, edge, window int) (count, before int, triple bool)

// haveAVX2 gates the vector loop.
var haveAVX2 = cpuid.AVX2
