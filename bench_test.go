package hybridprng

// One benchmark per paper artefact (tables and figures), plus the
// ablations DESIGN.md calls out. Two kinds of numbers appear:
//
//   - real wall-clock Go throughput of this library and the baseline
//     generators (ns/op), and
//   - simulated-platform times from the internal/gpu cost model,
//     reported as the custom metric "sim-ms" (the figures the paper
//     draws were measured on a Tesla C1060 that the simulator stands
//     in for; see DESIGN.md).

import (
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/listrank"
	"repro/internal/photon"
	"repro/internal/rng"
)

// BenchmarkGetNextRand is the headline: one on-demand number from
// the default (glibc-fed, 64-step) generator.
func BenchmarkGetNextRand(b *testing.B) {
	g, err := New(WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Uint64()
	}
}

// BenchmarkTable1SpeedRanking measures the real per-number speed of
// every generator in Table I's line-up (Go implementations; the
// table's device ranking comes from cmd/prngbench -table1).
func BenchmarkTable1SpeedRanking(b *testing.B) {
	gens := []struct {
		name string
		src  func() rng.Source
	}{
		{"glibc-rand", func() rng.Source { return baselines.NewGlibcRand(1) }},
		{"curand-xorwow", func() rng.Source { return baselines.NewXORWOW(1) }},
		{"cudpp-md5", func() rng.Source { return baselines.NewMD5Rand(1) }},
		{"mersenne-twister", func() rng.Source { return baselines.NewMT19937_64(1) }},
		{"hybrid-prng", func() rng.Source { g, _ := New(WithSeed(1)); return g }},
	}
	for _, gen := range gens {
		b.Run(gen.name, func(b *testing.B) {
			src := gen.src()
			b.SetBytes(8)
			for i := 0; i < b.N; i++ {
				src.Uint64()
			}
		})
	}
}

// BenchmarkFigure3Throughput books the Figure 3 size sweep on the
// simulated platform and reports the simulated milliseconds.
func BenchmarkFigure3Throughput(b *testing.B) {
	for _, m := range []int64{5, 100, 1000} {
		n := m * 1_000_000
		b.Run(fmt.Sprintf("hybrid/N=%dM", m), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := p.GenerateHybrid(n, 100)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
		b.Run(fmt.Sprintf("mt/N=%dM", m), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
				rep, err := p.GenerateMTBatch(n)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
		b.Run(fmt.Sprintf("curand/N=%dM", m), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
				rep, err := p.GenerateCurandDevice(n)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
	}
}

// BenchmarkFigure5BlockSize books the block-size sweep (N = 10 M) on
// the simulated platform.
func BenchmarkFigure5BlockSize(b *testing.B) {
	for _, s := range []int{1, 10, 100, 1000, 100000} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				p, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
				if err != nil {
					b.Fatal(err)
				}
				rep, err := p.GenerateHybrid(10_000_000, s)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
	}
}

// BenchmarkFigure6CPUOnly is the real CPU experiment: the hybrid
// generator on goroutine walkers versus serial glibc rand().
func BenchmarkFigure6CPUOnly(b *testing.B) {
	const n = 200_000
	b.Run("hybrid-pool", func(b *testing.B) {
		p, err := NewParallel(4, WithSeed(9))
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]uint64, n)
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Fill(buf)
		}
	})
	b.Run("glibc-serial", func(b *testing.B) {
		g := baselines.NewGlibcRand(9)
		buf := make([]uint64, n)
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = g.Uint64()
			}
		}
	})
}

// BenchmarkFigure7ListRanking books the three Figure 7 variants at
// N = 32 M on the simulated platform, and also measures the real Go
// FIS ranker.
func BenchmarkFigure7ListRanking(b *testing.B) {
	for _, variant := range listrank.Variants() {
		b.Run("sim/"+variant, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				rep, err := listrank.RankTimeSim(variant, 32_000_000, nil)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
	}
	b.Run("real/fisrank-100k", func(b *testing.B) {
		l, err := listrank.NewRandomList(100_000, baselines.NewSplitMix64(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := listrank.FISRank(l, baselines.NewSplitMix64(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real/fisrank-parallel-100k", func(b *testing.B) {
		l, err := listrank.NewRandomList(100_000, baselines.NewSplitMix64(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, err := listrank.FISRankParallel(l, 4, func(w int) rng.Source {
				return baselines.NewSplitMix64(uint64(i*8 + w))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure8Photon books both Figure 8 variants at 16 M
// photons on the simulated platform, and measures the real transport
// code.
func BenchmarkFigure8Photon(b *testing.B) {
	for _, variant := range []string{photon.VariantOriginal, photon.VariantHybrid} {
		b.Run("sim/"+variant, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				rep, err := photon.SimulateTiming(variant, 16_000_000, 267)
				if err != nil {
					b.Fatal(err)
				}
				last = rep.SimNs / 1e6
			}
			b.ReportMetric(last, "sim-ms")
		})
	}
	b.Run("real/transport-1k", func(b *testing.B) {
		tissue := photon.ThreeLayerSkin()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := photon.Simulate(tissue, 1000, baselines.NewSplitMix64(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWalkLength quantifies the speed side of the
// walk-length knob (quality side: cmd/dieharder -gen
// hybrid-prng-short-walk).
func BenchmarkAblationWalkLength(b *testing.B) {
	for _, l := range []int{4, 16, 64, 128} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			g, err := New(WithSeed(2), WithWalkLength(l))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g.Uint64()
			}
		})
	}
}

// BenchmarkAblationFeed quantifies the feed-source knob.
func BenchmarkAblationFeed(b *testing.B) {
	for _, feed := range []string{FeedGlibc, FeedANSIC, FeedSplitMix} {
		b.Run(feed, func(b *testing.B) {
			g, err := New(WithSeed(3), WithFeed(feed))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				g.Uint64()
			}
		})
	}
}

// BenchmarkAblationBlockWorkers crosses pool size with batch size on
// the real CPU backend.
func BenchmarkAblationBlockWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, err := NewParallel(workers, WithSeed(4))
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]uint64, 100*workers)
			b.SetBytes(int64(8 * len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fill(buf)
			}
		})
	}
}

// BenchmarkAblationExpanderVsDegenerate compares the Gabber–Galil
// walk against a degenerate non-expander walk of the same cost shape
// (a ±1 cycle walk) to show the construction, not the walking, is
// what buys quality; the speed side here, the quality side in the
// expander package's mixing tests.
func BenchmarkAblationExpanderVsDegenerate(b *testing.B) {
	b.Run("gabber-galil", func(b *testing.B) {
		w, err := core.NewWalker(rng.NewBitReader(baselines.NewGlibcRand(5)), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			w.Next()
		}
	})
	b.Run("cycle-walk", func(b *testing.B) {
		// Same feed, same step count, but the walk moves ±1 on a
		// 2^64 cycle — no expansion, no mixing.
		br := rng.NewBitReader(baselines.NewGlibcRand(5))
		var pos uint64
		for i := 0; i < b.N; i++ {
			for s := 0; s < 64; s++ {
				if br.Bits(3)&1 == 1 {
					pos++
				} else {
					pos--
				}
			}
		}
		_ = pos
	})
}

// BenchmarkBitReader isolates the feed-bit extraction cost.
func BenchmarkBitReader(b *testing.B) {
	br := rng.NewBitReader(baselines.NewSplitMix64(1))
	for i := 0; i < b.N; i++ {
		br.Bits(3)
	}
}

// BenchmarkPool measures the sharded serving surface the randd
// server draws from: ticketed single-word draws, bulk Fill striping
// across shards, and the per-shard ShardFill audit probe the
// cross-stream battery uses.
func BenchmarkPool(b *testing.B) {
	p, err := NewPool(WithSeed(1), WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("uint64", func(b *testing.B) {
		b.SetBytes(8)
		for i := 0; i < b.N; i++ {
			if _, err := p.Uint64(); err != nil {
				b.Fatal(err)
			}
		}
	})
	dst := make([]uint64, 1024)
	b.Run("fill-8KiB", func(b *testing.B) {
		b.SetBytes(8 * 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.Fill(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shard-fill-8KiB", func(b *testing.B) {
		b.SetBytes(8 * 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.ShardFill(i&3, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The wide-pool rows measure the batched refill kernel at full
	// lane width: sixteen shards give Fill a whole sixteen-lane
	// lockstep group per sweep, against shard-fill-8KiB's one-walk
	// scalar refill above.
	p16, err := NewPool(WithSeed(1), WithShards(16))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fill-8KiB-x16", func(b *testing.B) {
		b.SetBytes(8 * 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p16.Fill(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf := make([]byte, 8*1024)
	b.Run("fill-bytes-8KiB-x16", func(b *testing.B) {
		b.SetBytes(8 * 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p16.FillBytes(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The default-config row: randd's pool as it boots (default shard
	// count, health monitoring at its -hmin 4) filling one 64 KiB
	// /bytes chunk — the batched kernel and the word-at-a-time health
	// tests together.
	pd, err := NewPool(WithSeed(1), WithHealthMonitoring(4))
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 64*1024)
	b.Run("fill-bytes-64KiB-health", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := pd.FillBytes(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
