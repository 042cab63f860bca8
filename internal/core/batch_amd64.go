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

// haveAVX2 gates the vector kernels at startup.
var haveAVX2 = cpuidAVX2()

// walkBins advances lanes 0..n-1 (vecMinLanes ≤ n ≤ MaxBatchLanes)
// through r numbers each from their bins in lockstep on the AVX2
// kernels, writing number i of lane j to outs[j][i]: one step21x8 call
// per chunk for up to eight lanes, one step21x16 call for more. Slots
// ≥ n are dead (stale or retired), so the kernels may compute garbage
// in them.
func walkBins(bins *binGroup, x, y *[MaxBatchLanes]uint32, outs *[MaxBatchLanes][]uint64, n, r, chunks, tail int) {
	var word [MaxBatchLanes]uint64
	off := uint(0)
	for i := 0; i < r; i++ {
		// One number per active lane: the chunks first, then the
		// per-step tail — the same per-walker feed order as walk().
		for c := 0; c < chunks; c++ {
			bw, sh := off>>6, off&63
			for j := 0; j < n; j++ {
				word[j] = binTake(&bins[j], bw, sh) >> 1
			}
			off += chunkBits
			if n > 8 {
				step21x16(x, y, &word)
			} else {
				step21x8((*[8]uint32)(x[:8]), (*[8]uint32)(y[:8]), (*[8]uint64)(word[:8]))
			}
		}
		for t := 0; t < tail; t++ {
			bw, sh := off>>6, off&63
			for j := 0; j < n; j++ {
				x[j], y[j] = stepXY(x[j], y[j], binTake(&bins[j], bw, sh)>>61)
			}
			off += BitsPerStep
		}
		for j := 0; j < n; j++ {
			outs[j][i] = uint64(x[j])<<32 | uint64(y[j])
		}
	}
}
