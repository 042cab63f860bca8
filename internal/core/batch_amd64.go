//go:build amd64 && !purego

package core

// walkLanes advances all MaxBatchLanes lanes of bg through k numbers,
// 1 ≤ k ≤ len(bg.out), from bit off of their bins: per number, chunks
// 21-step chunks and then tail steps, the feed order of walk(). It
// writes number i of lane j to bg.out[i][j] as x<<32 | y, and leaves
// every lane's end position in x and y — the AVX2 round kernel
// (batch_amd64.s). The differential tests in batch_amd64_test.go pin it
// to walkBin.
//
//go:noescape
func walkLanes(bg *binGroup, x, y *[MaxBatchLanes]uint32, off uint, k, chunks, tail int)

// cpuidAVX2 reports whether the CPU and OS support AVX2 (including
// OS-saved YMM state), via raw CPUID/XGETBV in batch_amd64.s.
func cpuidAVX2() bool

// haveAVX2 gates the vector kernel at startup.
var haveAVX2 = cpuidAVX2()

// walkBins advances lanes 0..n-1 (n ≤ MaxBatchLanes) through r numbers
// each from their bins in lockstep, one walkLanes call per len(g.out)
// numbers, and copies number i of lane j to outs[j][i]. The kernel
// always walks every slot; slots ≥ n are dead (stale or retired) and
// read the stale bins of their own slots, which lie inside g.
func walkBins(g *binGroup, x, y *[MaxBatchLanes]uint32, outs *[MaxBatchLanes][]uint64, n, r, chunks, tail int) {
	per := uint(chunks*chunkBits + tail*BitsPerStep)
	for i := 0; i < r; i += len(g.out) {
		k := min(r-i, len(g.out))
		walkLanes(g, x, y, uint(i)*per, k, chunks, tail)
		for j := 0; j < n; j++ {
			col := outs[j][i : i+k]
			for t := range col {
				col[t] = g.out[t][j]
			}
		}
	}
}
