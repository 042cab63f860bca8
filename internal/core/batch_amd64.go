//go:build amd64 && !purego

package core

import "repro/internal/cpuid"

// walkLanes advances all MaxBatchLanes lanes of bg through k numbers,
// 1 ≤ k ≤ len(bg.out[0]), from bit off of their bins: per number, chunks
// 21-step chunks and then tail steps, the feed order of walk(). It
// writes number i of lane j to bg.out[j][i] as x<<32 | y, and leaves
// every lane's end position in x and y — the AVX2 round kernel
// (batch_amd64.s). The differential tests in batch_amd64_test.go pin it
// to walkBin.
//
//go:noescape
func walkLanes(bg *binGroup, x, y *[MaxBatchLanes]uint32, off uint, k, chunks, tail int)

// haveAVX2 gates the vector kernel.
var haveAVX2 = cpuid.AVX2

// walkBins advances lanes 0..n-1 (n ≤ MaxBatchLanes) through r numbers
// each from their bins in lockstep, one walkLanes call per
// len(g.out[0]) numbers, and copies lane j's row of each call's block
// to outs[j]. The kernel always walks every slot; slots ≥ n are dead
// (stale or retired) and read the stale bins and write the rows of
// their own slots, which lie inside g.
func walkBins(g *binGroup, x, y *[MaxBatchLanes]uint32, outs *[MaxBatchLanes][]uint64, n, r, chunks, tail int) {
	per := uint(chunks*chunkBits + tail*BitsPerStep)
	for i := 0; i < r; i += len(g.out[0]) {
		k := min(r-i, len(g.out[0]))
		walkLanes(g, x, y, uint(i)*per, k, chunks, tail)
		for j := 0; j < n; j++ {
			copy(outs[j][i:i+k], g.out[j][:k])
		}
	}
}
