package listrank

import (
	"testing"
	"testing/quick"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/rng"
)

func src(seed uint64) *baselines.SplitMix64 { return baselines.NewSplitMix64(seed) }

func TestNewOrderedList(t *testing.T) {
	l, err := NewOrderedList(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	ranks, err := SequentialRanks(l)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if r != int64(i) {
			t.Errorf("rank[%d] = %d", i, r)
		}
	}
	if _, err := NewOrderedList(0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestNewRandomListValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000} {
		l, err := NewRandomList(n, src(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if _, err := NewRandomList(0, src(1)); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestRandomListIsActuallyShuffled(t *testing.T) {
	l, _ := NewRandomList(1000, src(3))
	inOrder := 0
	for i := 0; i < 999; i++ {
		if l.Succ[i] == int32(i+1) {
			inOrder++
		}
	}
	if inOrder > 50 {
		t.Errorf("%d/999 successors are identity — not shuffled", inOrder)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	l, _ := NewOrderedList(10)
	l.Succ[3] = 3 // self-loop
	if err := l.Validate(); err == nil {
		t.Error("self-loop should fail validation")
	}
	l, _ = NewOrderedList(10)
	l.Succ[3] = -1 // second tail
	if err := l.Validate(); err == nil {
		t.Error("broken chain should fail validation")
	}
	l, _ = NewOrderedList(10)
	l.Head = 5
	if err := l.Validate(); err == nil {
		t.Error("wrong head should fail validation")
	}
}

func TestFISRankMatchesSequential(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 10000} {
		l, _ := NewRandomList(n, src(uint64(n)*13))
		want, _ := SequentialRanks(l)
		got, stats, err := FISRank(l, src(uint64(n)+555))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: FIS rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		if n >= 100 && stats.Iterations == 0 {
			t.Errorf("n=%d: no reduction iterations recorded", n)
		}
	}
}

func TestFISRankWithHybridPRNG(t *testing.T) {
	// The paper's actual configuration: the on-demand expander-walk
	// generator supplies the FIS bits.
	l, _ := NewRandomList(5000, src(77))
	want, _ := SequentialRanks(l)
	w, err := core.NewWalker(bitsource.Glibc(99), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := FISRank(l, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if stats.RandomsDrawn == 0 {
		t.Error("no randoms drawn")
	}
}

func TestFISReductionShrinksGeometrically(t *testing.T) {
	l, _ := NewRandomList(100000, src(5))
	_, stats, err := FISRank(l, src(6))
	if err != nil {
		t.Fatal(err)
	}
	// Interior removal probability is 1/8; the per-iteration
	// survival factor should be ≈ 7/8.
	for i := 1; i < len(stats.ActivePerIt); i++ {
		ratio := float64(stats.ActivePerIt[i]) / float64(stats.ActivePerIt[i-1])
		if ratio < 0.8 || ratio > 0.95 {
			t.Errorf("iteration %d survival ratio %.3f, want ≈ 0.875", i, ratio)
		}
	}
	// The on-demand count is the sum of active counts.
	var sum int64
	for _, a := range stats.ActivePerIt {
		sum += a
	}
	if stats.RandomsDrawn != sum {
		t.Errorf("randoms drawn %d != Σ active %d", stats.RandomsDrawn, sum)
	}
}

// rankHelmanJaJa ranks a whole list with Phase II's ranker: every
// node weighs 1 but the head, which weighs 0, so the ranks are the
// distances from the head.
func rankHelmanJaJa(l *List, splitters int, src rng.Source, workers int) []int64 {
	n := l.Len()
	nodes := make([]int32, n)
	val := make([]int64, n)
	for i := range nodes {
		nodes[i], val[i] = int32(i), 1
	}
	val[l.Head] = 0
	ranks := make([]int64, n)
	helmanJaJa(ranks, l.Head, nodes, l.Succ, val, splitters, src, workers)
	return ranks
}

// TestHelmanJaJaMatchesTraversal holds Phase II to the prefix-sum
// traversal it replaced, on the weighted lists a real Phase I leaves,
// from one splitter to more splitters than survivors.
func TestHelmanJaJaMatchesTraversal(t *testing.T) {
	for _, n := range []int{2, 5, 1000, 4097, 100_000} {
		l, _ := NewRandomList(n, src(uint64(n)*17))
		r, _ := reduce(l, []rng.Source{src(uint64(n) + 3)})
		want := make([]int64, n)
		var acc int64
		for u := l.Head; u != -1; u = r.succ[u] {
			acc += r.val[u]
			want[u] = acc
		}
		for _, splitters := range []int{1, 2, 64, len(r.active) + 1} {
			for _, workers := range []int{1, 4} {
				got := make([]int64, n)
				helmanJaJa(got, l.Head, r.active, r.succ, r.val, splitters, src(uint64(splitters)), workers)
				for _, u := range r.active {
					if got[u] != want[u] {
						t.Fatalf("n=%d (%d survivors), %d splitters, %d workers: rank[%d] = %d, want %d",
							n, len(r.active), splitters, workers, u, got[u], want[u])
					}
				}
			}
		}
	}
}

func TestHelmanJaJaMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 50, 3000} {
		l, _ := NewRandomList(n, src(uint64(n)*31))
		want, _ := SequentialRanks(l)
		got := rankHelmanJaJa(l, 16, src(uint64(n)+1), 4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: HJ rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestRankersAgreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%500 + 2
		l, err := NewRandomList(n, src(seed))
		if err != nil {
			return false
		}
		seq, err := SequentialRanks(l)
		if err != nil {
			return false
		}
		fis, _, err := FISRank(l, src(seed^0xABCD))
		if err != nil {
			return false
		}
		hj := rankHelmanJaJa(l, 8, src(seed^0x1234), 2)
		for i := range seq {
			if fis[i] != seq[i] || hj[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReduceTarget(t *testing.T) {
	if got := reduceTarget(1024); got != 102 {
		t.Errorf("reduceTarget(1024) = %d, want 102 (n/log₂n)", got)
	}
	if got := reduceTarget(2); got < 2 {
		t.Errorf("reduceTarget(2) = %d", got)
	}
}

func TestFigure7Shape(t *testing.T) {
	// Ours ≈ 40% faster than hybrid-glibc; pure-GPU-MT is worst.
	for _, n := range []int64{8_000_000, 32_000_000, 128_000_000} {
		ours, err := RankTimeSim(VariantHybridOurs, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		glibc, err := RankTimeSim(VariantHybridGlibc, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := RankTimeSim(VariantPureGPUMT, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		improvement := 1 - ours.SimNs/glibc.SimNs
		if improvement < 0.25 || improvement > 0.60 {
			t.Errorf("N=%d: improvement over hybrid-glibc = %.0f%%, want ≈ 40%%", n, 100*improvement)
		}
		if mt.SimNs <= glibc.SimNs {
			t.Errorf("N=%d: pure-GPU-MT (%.1f ms) should be slowest (glibc %.1f ms)", n, mt.SimNs/1e6, glibc.SimNs/1e6)
		}
		// On demand generates strictly fewer numbers.
		if ours.Randoms >= glibc.Randoms {
			t.Errorf("N=%d: on-demand drew %d randoms ≥ pre-generated %d", n, ours.Randoms, glibc.Randoms)
		}
	}
}

func TestFigure7WithMeasuredStats(t *testing.T) {
	// Drive the simulator with REAL reduction statistics from a real
	// FIS run.
	l, _ := NewRandomList(200000, src(1))
	_, stats, err := FISRank(l, src(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RankTimeSim(VariantHybridOurs, int64(l.Len()), stats)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations < stats.Iterations {
		t.Errorf("sim iterations %d < measured %d", rep.Iterations, stats.Iterations)
	}
	if rep.SimNs <= 0 {
		t.Error("no simulated time")
	}
}

func TestRankTimeSimValidation(t *testing.T) {
	if _, err := RankTimeSim(VariantHybridOurs, 1, nil); err == nil {
		t.Error("n=1 should fail")
	}
	// n = 2 and 3 book no iterations, so the variant must be checked
	// before the iteration loop.
	for _, n := range []int64{2, 3, 100} {
		if _, err := RankTimeSim("bogus", n, nil); err == nil {
			t.Errorf("unknown variant at n=%d should fail", n)
		}
	}
	if len(Variants()) != 3 {
		t.Error("want 3 variants")
	}
}

func TestCloneIsDeep(t *testing.T) {
	l, _ := NewOrderedList(4)
	c := l.Clone()
	c.Succ[0] = 3
	if l.Succ[0] == 3 {
		t.Error("clone shares storage")
	}
}
