//go:build amd64 && !purego

package core

// step21x8 advances eight full-graph lanes through one 63-bit feed
// chunk (21 steps each) with all lane state in vector registers —
// the AVX2 inner loop of the batched kernel (batch_amd64.s). Bitwise
// identical to 21 scalar stepXY applications per lane; the
// differential tests in batch_test.go pin this.
//
//go:noescape
func step21x8(x, y *[8]uint32, w *[8]uint64)

// step21x16 is the sixteen-lane variant: two eight-wide halves fused
// in one loop so their independent dependency chains overlap in the
// out-of-order window instead of running back to back.
//
//go:noescape
func step21x16(x, y *[16]uint32, w *[16]uint64)

// cpuidAVX2 reports whether the CPU and OS support AVX2 (including
// OS-saved YMM state), via raw CPUID/XGETBV in batch_amd64.s.
func cpuidAVX2() bool

// haveStep8 gates the eight-wide vector path at startup.
var haveStep8 = cpuidAVX2()
