package listrank

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/gpu"
	"repro/internal/hybrid"
)

// Figure 7 timing model. Three implementations of Phase I (the FIS
// reduction, 80% of list-ranking time per the paper) are booked on
// the simulated platform:
//
//   - "hybrid-ours": Algorithm 3. Each iteration the CPU feeds
//     exactly active_i numbers' worth of walk bits (24 B each, on
//     demand — the count is known because GetNextRand is pulled by
//     surviving threads), overlapped with the previous iteration's
//     kernel. The GPU walks (64·56 cycles) and splices per active
//     node.
//
//   - "hybrid-glibc": the algorithm of the paper's reference [3].
//     The CPU pre-generates a predetermined upper bound of numbers
//     per iteration — the w.h.p. FIS guarantee of n·(23/24)^i
//     survivors, not the actual ≈ n·(7/8)^i — at serial glibc rand()
//     speed (rand() is not thread safe, so one core), 4 B per
//     number; the GPU splices and reads the pre-generated numbers
//     from global memory.
//
//   - "pure-gpu-mt": no CPU at all; each iteration a Mersenne
//     Twister batch kernel generates the bound-count numbers into
//     device memory, then the splice kernel consumes them.
//
// The constants below are the defensible mechanism behind the
// paper's ≈ 40% Phase I improvement: on-demand generation removes
// the (23/24)/(7/8) over-generation factor, and the thread-safe
// walkers let the feed run multicore.
const (
	spliceCyclesPerNode = 200 // compare bits, splice, book-keep
	fetchCyclesPerRand  = 60  // uncoalesced global read of a stored number
	serialGlibcBps      = 0.35e9
	fisRemoveProb       = 1.0 / 8  // true per-iteration survival factor 7/8
	fisBoundProb        = 1.0 / 24 // w.h.p. guarantee used by [3]
)

// Variant names for RankTimeSim.
const (
	VariantHybridOurs  = "hybrid-ours"
	VariantHybridGlibc = "hybrid-glibc"
	VariantPureGPUMT   = "pure-gpu-mt"
)

// Variants lists the Figure 7 curves in the paper's order.
func Variants() []string {
	return []string{VariantPureGPUMT, VariantHybridGlibc, VariantHybridOurs}
}

// SimReport is the Figure 7 datum for one variant and list size.
type SimReport struct {
	Variant    string
	N          int64
	Iterations int
	SimNs      gpu.Time
	CPUUtil    float64
	GPUUtil    float64
	Randoms    int64 // numbers generated/fed in total
}

func (r SimReport) String() string {
	return fmt.Sprintf("%-14s N=%d iters=%d time=%.3f ms randoms=%d cpu=%.0f%% gpu=%.0f%%",
		r.Variant, r.N, r.Iterations, r.SimNs/1e6, r.Randoms, 100*r.CPUUtil, 100*r.GPUUtil)
}

// expectedActive returns the modelled survivor counts per iteration
// until n/log₂n remain, with survival factor (1−p).
func expectedActive(n int64, p float64) []int64 {
	target := float64(reduceTarget(int(min64(n, 1<<30))))
	if n > 1<<30 {
		// For list sizes beyond what fits an int, log₂n directly.
		target = float64(n) / math.Log2(float64(n))
	}
	var counts []int64
	c := float64(n)
	for c > target && len(counts) < 200 {
		counts = append(counts, int64(c))
		c *= 1 - p
	}
	return counts
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// RankTimeSim books Phase I of variant v for a list of n nodes on a
// fresh simulated platform and returns the timing report. If
// measured is non-nil (real per-iteration active counts from
// FISRank), those drive the on-demand variant instead of the model.
func RankTimeSim(variant string, n int64, measured *ReduceStats) (SimReport, error) {
	if n < 2 {
		return SimReport{}, fmt.Errorf("listrank: n = %d < 2", n)
	}
	if !slices.Contains(Variants(), variant) {
		return SimReport{}, fmt.Errorf("listrank: unknown variant %q", variant)
	}
	model := hybrid.DefaultCostModel()
	p, err := hybrid.NewPlatform(model)
	if err != nil {
		return SimReport{}, err
	}

	var active, bound []int64
	if measured != nil && len(measured.ActivePerIt) > 0 {
		active = measured.ActivePerIt
	} else {
		active = expectedActive(n, fisRemoveProb)
	}
	bound = expectedActive(n, fisBoundProb)
	// Align iteration counts: [3] runs the same loop until the same
	// target, so both schedules run max(len) iterations; pad with
	// the final value.
	iters := len(active)
	if len(bound) > iters {
		iters = len(bound)
	}
	at := func(xs []int64, i int) int64 {
		if i < len(xs) {
			return xs[i]
		}
		if len(xs) == 0 {
			return 0
		}
		return xs[len(xs)-1]
	}

	pl := p.Pipeline()
	var totalRandoms int64
	for i := 0; i < iters; i++ {
		survivors := int(min64(at(active, i), 1<<30))
		// The baselines' splice reads a stored number per survivor.
		splice := gpu.Kernel{
			Name:            "G",
			Threads:         survivors,
			CyclesPerThread: spliceCyclesPerNode + fetchCyclesPerRand,
		}
		switch variant {
		case VariantHybridOurs:
			cnt := at(active, i)
			totalRandoms += cnt
			pl.Chunk(int64(model.FeedBytesPerNumber()*float64(cnt)), model.FeedBytesPerSec, gpu.Kernel{
				Name:            "G",
				Threads:         survivors,
				CyclesPerThread: model.GenCyclesPerNumber() + spliceCyclesPerNode,
			})
		case VariantHybridGlibc:
			cnt := at(bound, i)
			totalRandoms += cnt
			pl.Chunk(cnt*4, serialGlibcBps, splice)
		case VariantPureGPUMT:
			cnt := at(bound, i)
			totalRandoms += cnt
			pl.Launch(gpu.Kernel{
				Name:            "M",
				Threads:         int(min64(cnt, 1<<30)),
				CyclesPerThread: model.MTBatchCyclesPerNumber,
			})
			pl.Launch(splice)
		}
	}
	rep := SimReport{Variant: variant, N: n, Iterations: iters, Randoms: totalRandoms}
	rep.SimNs, rep.CPUUtil, rep.GPUUtil, _ = pl.Usage()
	return rep, nil
}
