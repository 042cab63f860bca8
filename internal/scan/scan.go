// Package scan implements the data-parallel primitives the paper's
// GPU list-ranking lineage builds on — prefix sums (Blelloch-style
// work-efficient scan) and stream compaction — executed for real
// across goroutines. The hybrid list-ranking implementation of the
// paper's reference [3] removes FIS nodes with exactly this
// scan-then-compact pattern; listrank.FISRankParallel uses this
// package the same way.
package scan

import (
	"runtime"
	"sync"
)

// sequentialCutoff is the size below which the parallel paths fall
// back to the serial loop (goroutine overhead dominates under it).
const sequentialCutoff = 1 << 14

// ExclusiveSum computes the exclusive prefix sum of src into a new
// slice: dst[i] = Σ_{j<i} src[j]. It also returns the total. The
// parallel version splits src into worker blocks, scans each block,
// scans the block totals serially, then offsets — the classic
// two-pass work-efficient scheme.
func ExclusiveSum(src []int64, workers int) (dst []int64, total int64) {
	n := len(src)
	dst = make([]int64, n)
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < sequentialCutoff || workers == 1 {
		var run int64
		for i, v := range src {
			dst[i] = run
			run += v
		}
		return dst, run
	}
	blocks := workers * 4
	if blocks > n {
		blocks = n
	}
	size := (n + blocks - 1) / blocks
	sums := make([]int64, blocks)

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	// Pass 1: per-block exclusive scan and block totals.
	for b := 0; b < blocks; b++ {
		lo := b * size
		if lo >= n {
			blocks = b
			break
		}
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(b, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			var run int64
			for i := lo; i < hi; i++ {
				dst[i] = run
				run += src[i]
			}
			sums[b] = run
		}(b, lo, hi)
	}
	wg.Wait()
	// Scan the block totals serially (blocks ≪ n).
	var run int64
	offsets := make([]int64, blocks)
	for b := 0; b < blocks; b++ {
		offsets[b] = run
		run += sums[b]
	}
	// Pass 2: add the block offsets.
	for b := 0; b < blocks; b++ {
		lo := b * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		off := offsets[b]
		if off == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int, off int64) {
			defer wg.Done()
			defer func() { <-sem }()
			for i := lo; i < hi; i++ {
				dst[i] += off
			}
		}(lo, hi, off)
	}
	wg.Wait()
	return dst, run
}

// Compact writes the elements of src whose keep flag is set into a
// fresh slice, preserving order, using the scan-based scatter (the
// GPU stream-compaction pattern, parallel across workers). The
// result is identical to the serial filter for any worker count.
func Compact[T any](src []T, keep []bool, workers int) []T {
	n := len(src)
	if len(keep) != n {
		panic("scan: Compact length mismatch")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < sequentialCutoff || workers == 1 {
		out := make([]T, 0, n/2)
		for i, k := range keep {
			if k {
				out = append(out, src[i])
			}
		}
		return out
	}
	flags := make([]int64, n)
	for i, k := range keep {
		if k {
			flags[i] = 1
		}
	}
	idx, total := ExclusiveSum(flags, workers)
	out := make([]T, total)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if keep[i] {
					out[idx[i]] = src[i]
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
