package scan

import (
	"testing"
	"testing/quick"

	"repro/internal/baselines"
)

func TestExclusiveSumSmall(t *testing.T) {
	dst, total := ExclusiveSum([]int64{3, 1, 4, 1, 5}, 4)
	want := []int64{0, 3, 4, 8, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	if total != 14 {
		t.Errorf("total = %d", total)
	}
	// Empty input.
	dst, total = ExclusiveSum(nil, 4)
	if len(dst) != 0 || total != 0 {
		t.Error("empty scan broken")
	}
}

func TestExclusiveSumParallelMatchesSerial(t *testing.T) {
	src := baselines.NewSplitMix64(1)
	n := 100000 // above the cutoff
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(src.Uint64() % 7)
	}
	serial, st := ExclusiveSum(xs, 1)
	for _, workers := range []int{2, 3, 8} {
		par, pt := ExclusiveSum(xs, workers)
		if pt != st {
			t.Fatalf("workers=%d: total %d vs %d", workers, pt, st)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: dst[%d] = %d, want %d", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestCompactSmall(t *testing.T) {
	out := Compact([]int32{10, 20, 30, 40}, []bool{true, false, false, true}, 4)
	if len(out) != 2 || out[0] != 10 || out[1] != 40 {
		t.Fatalf("compact = %v", out)
	}
	out = Compact([]int32{1, 2}, []bool{false, false}, 2)
	if len(out) != 0 {
		t.Errorf("all-false compact = %v", out)
	}
}

func TestCompactParallelMatchesSerial(t *testing.T) {
	src := baselines.NewSplitMix64(2)
	n := 80000
	xs := make([]int, n)
	keep := make([]bool, n)
	for i := range xs {
		xs[i] = i
		keep[i] = src.Uint64()&3 != 0
	}
	serial := Compact(xs, keep, 1)
	for _, workers := range []int{2, 5, 8} {
		par := Compact(xs, keep, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: length %d vs %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestCompactPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Compact([]int{1}, []bool{true, false}, 1)
}

func TestScanProperty(t *testing.T) {
	// dst[i+1] − dst[i] == src[i] for every i; last total matches.
	f := func(raw []int16, workersRaw uint8) bool {
		workers := int(workersRaw)%8 + 1
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		dst, total := ExclusiveSum(xs, workers)
		var sum int64
		for i := range xs {
			if dst[i] != sum {
				return false
			}
			sum += xs[i]
		}
		return total == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
