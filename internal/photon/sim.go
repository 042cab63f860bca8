package photon

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/rng"
)

// ClashStats quantifies the paper's "weight clashes": photons whose
// initial RNG draw collides with another photon's, so the two
// packets start (and with colliding per-thread streams, continue) as
// one — wasted, serialised work. The 32-bit initialisation values of
// the CUDAMCML MWC collide by the birthday bound; the hybrid PRNG's
// 64-bit vertex ids effectively never do.
type ClashStats struct {
	Photons    int64
	Duplicates int64
}

// CountClashes draws one initialisation value per photon from src,
// truncated to valueBits (32 for the MWC baseline, 64 for the hybrid
// PRNG), and counts duplicates.
func CountClashes(src rng.Source, photons int64, valueBits uint) (ClashStats, error) {
	if photons < 1 {
		return ClashStats{}, fmt.Errorf("photon: photons = %d < 1", photons)
	}
	if valueBits == 0 || valueBits > 64 {
		return ClashStats{}, fmt.Errorf("photon: valueBits = %d out of (0, 64]", valueBits)
	}
	mask := ^uint64(0)
	if valueBits < 64 {
		mask = 1<<valueBits - 1
	}
	seen := make(map[uint64]struct{}, photons)
	stats := ClashStats{Photons: photons}
	for i := int64(0); i < photons; i++ {
		v := src.Uint64() & mask
		if _, dup := seen[v]; dup {
			stats.Duplicates++
		} else {
			seen[v] = struct{}{}
		}
	}
	return stats, nil
}

// Figure 8 cost model. Each iteration processes one resident batch
// of photon packets (the paper: "a fixed quantity of photon packets
// are processed in each iteration"). The transport kernel itself is
// identical in both variants (CUDAMCML's kernels are reused; in-
// kernel scattering draws stay with the inline MWC). The difference
// is the initialisation randomness:
//
//   - "original" (CUDAMCML): before every transport launch a device
//     kernel re-initialises the per-photon RNG states and seed
//     values — init_RNG's global-memory fetch of seeds and
//     safe-prime multipliers plus the MWC warm-up loop — and stores
//     the initialisation numbers to global memory. That kernel
//     serialises with transport on the single compute engine — the
//     GPU waits (the paper's "extra space for storing the random
//     numbers" and idle-resource critique).
//
//   - "hybrid": the CPU produces the initialisation numbers (weight
//     and launch seed, 2 per photon at 24 feed-bytes each) and
//     streams them over PCIe while the previous iteration's
//     transport kernel runs (Algorithm 4 lines 7–8), so their cost
//     disappears into the overlap. The feed is 2·24 B ≈ 28 ns/photon
//     at 1.7 GB/s, below the ≈ 58 ns/photon transport time, so the
//     overlap genuinely hides it.
//
// With the constants below the original's initialisation kernel
// costs ≈ 20% of a transport launch — the paper's reported ≈ 20%
// end-to-end speedup, size-independent as in Figure 8.
const (
	initNumbersPerPhoton      = 2
	initKernelCyclesPerPhoton = 5000  // init_RNG: global seed/multiplier fetch + warm-up + store
	initLoadCycles            = 40    // transport-side reload per number
	transportCyclesStep       = 60    // move/absorb/scatter per interaction
	residentPhotons           = 30720 // 128 threads × 240 cores
)

// Figure 8 variant names.
const (
	VariantOriginal = "original-cudamcml"
	VariantHybrid   = "hybrid-prng"
)

// SimReport is one Figure 8 datum.
type SimReport struct {
	Variant        string
	Photons        int64
	StepsPerPhoton float64
	SimNs          gpu.Time
	CPUUtil        float64
	GPUUtil        float64
}

func (r SimReport) String() string {
	return fmt.Sprintf("%-18s photons=%d steps/photon=%.1f time=%.3f ms cpu=%.0f%% gpu=%.0f%%",
		r.Variant, r.Photons, r.StepsPerPhoton, r.SimNs/1e6, 100*r.CPUUtil, 100*r.GPUUtil)
}

// SimulateTiming books the Figure 8 schedule for `photons` packets
// whose mean interaction count is stepsPerPhoton (measure it with
// Simulate on the real physics; ThreeLayerSkin gives ≈ 25–40).
func SimulateTiming(variant string, photons int64, stepsPerPhoton float64) (SimReport, error) {
	if photons < 1 {
		return SimReport{}, fmt.Errorf("photon: photons = %d < 1", photons)
	}
	if stepsPerPhoton <= 0 {
		return SimReport{}, fmt.Errorf("photon: stepsPerPhoton = %g must be positive", stepsPerPhoton)
	}
	model := hybrid.DefaultCostModel()
	p, err := hybrid.NewPlatform(model)
	if err != nil {
		return SimReport{}, err
	}
	pl := p.Pipeline()
	for remaining := photons; remaining > 0; {
		batch := min(int64(residentPhotons), remaining)
		remaining -= batch
		transport := gpu.Kernel{
			Name:            "P",
			Threads:         int(batch),
			CyclesPerThread: stepsPerPhoton*transportCyclesStep + initNumbersPerPhoton*initLoadCycles,
		}
		switch variant {
		case VariantOriginal:
			// RNG/state initialisation kernel, serialised before
			// transport on the same stream.
			pl.Launch(gpu.Kernel{
				Name:            "R",
				Threads:         int(batch),
				CyclesPerThread: initKernelCyclesPerPhoton,
			})
			pl.Launch(transport)
		case VariantHybrid:
			pl.Chunk(int64(model.FeedBytesPerNumber()*initNumbersPerPhoton*float64(batch)), model.FeedBytesPerSec, transport)
		default:
			return SimReport{}, fmt.Errorf("photon: unknown variant %q", variant)
		}
	}
	rep := SimReport{Variant: variant, Photons: photons, StepsPerPhoton: stepsPerPhoton}
	rep.SimNs, rep.CPUUtil, rep.GPUUtil, _ = pl.Usage()
	return rep, nil
}
