package listrank

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/baselines"
	"repro/internal/rng"
)

// The Phase I pins hold Algorithm 3's reduction to fixed numbers at
// fixed seeds: the iteration count, the coins drawn, the nodes removed
// and an FNV-1a digest of the survivor count at the start of every
// iteration. How Phases II and III rank the survivors may change;
// which coins Phase I draws and which nodes it removes may not:
// cmd/listrank prints these statistics, and RankTimeSim books the
// on-demand Figure 7 variant from them when they are supplied.

type phaseIPin struct {
	n            int
	iterations   int
	randomsDrawn int64
	removed      int64
	activeDigest uint64
}

func activePerItDigest(a []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range a {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkPhaseIPin(t *testing.T, name string, want phaseIPin, s *ReduceStats) {
	t.Helper()
	got := phaseIPin{want.n, s.Iterations, s.RandomsDrawn, s.Removed, activePerItDigest(s.ActivePerIt)}
	if got != want {
		t.Errorf("%s n=%d: got {iterations %d, randoms %d, removed %d, digest %#x}, want {%d, %d, %d, %#x}",
			name, want.n, got.iterations, got.randomsDrawn, got.removed, got.activeDigest,
			want.iterations, want.randomsDrawn, want.removed, want.activeDigest)
	}
}

func TestFISRankPhaseIPinned(t *testing.T) {
	for _, want := range []phaseIPin{
		{4097, 20, 30803, 3788, 0x3f654be3e1c7dd0f},
		{100_000, 21, 751972, 93970, 0xe1abee7eb0317848},
	} {
		l, err := NewRandomList(want.n, baselines.NewSplitMix64(uint64(want.n)))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := FISRank(l, baselines.NewSplitMix64(uint64(want.n)+1))
		if err != nil {
			t.Fatal(err)
		}
		checkPhaseIPin(t, "FISRank", want, stats)
	}
}

func TestFISRankParallelPhaseIPinned(t *testing.T) {
	for _, want := range []phaseIPin{
		{4097, 19, 29830, 3794, 0x4f27c21acbfe1413},
		{100_000, 21, 751208, 93835, 0xe4fdf4f0584ca89f},
	} {
		l, err := NewRandomList(want.n, baselines.NewSplitMix64(uint64(want.n)))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := FISRankParallel(l, 4, func(w int) rng.Source {
			return baselines.NewSplitMix64(baselines.Mix64(uint64(want.n) + uint64(w)))
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPhaseIPin(t, "FISRankParallel(4)", want, stats)
	}
}
