package diehard

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/stats"
)

func TestRankProbSumsToOne(t *testing.T) {
	for _, dims := range [][2]int{{31, 31}, {32, 32}, {6, 8}, {5, 5}} {
		m, n := dims[0], dims[1]
		sum := 0.0
		max := m
		if n < max {
			max = n
		}
		for r := 0; r <= max; r++ {
			p := rankProb(m, n, r)
			if p < 0 || p > 1 {
				t.Fatalf("rankProb(%d,%d,%d) = %g", m, n, r, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("rank probabilities for %dx%d sum to %g", m, n, sum)
		}
	}
	if rankProb(4, 4, 5) != 0 || rankProb(4, 4, -1) != 0 {
		t.Error("out-of-range ranks must have probability 0")
	}
}

func TestRankProbKnownValues(t *testing.T) {
	// Classic 32×32 values: P(32) ≈ 0.2888, P(31) ≈ 0.5776,
	// P(30) ≈ 0.1284.
	if p := rankProb(32, 32, 32); math.Abs(p-0.2888) > 0.0005 {
		t.Errorf("P(rank 32) = %g, want ≈ 0.2888", p)
	}
	if p := rankProb(32, 32, 31); math.Abs(p-0.5776) > 0.0005 {
		t.Errorf("P(rank 31) = %g, want ≈ 0.5776", p)
	}
	if p := rankProb(32, 32, 30); math.Abs(p-0.1284) > 0.0005 {
		t.Errorf("P(rank 30) = %g, want ≈ 0.1284", p)
	}
}

func TestBinaryRank64(t *testing.T) {
	// Identity-ish matrix has full rank.
	rows := []uint64{0b100, 0b010, 0b001}
	if r := binaryRank64(rows, 3); r != 3 {
		t.Errorf("identity rank = %d, want 3", r)
	}
	// Duplicate rows collapse.
	rows = []uint64{0b101, 0b101, 0b011}
	if r := binaryRank64(rows, 3); r != 2 {
		t.Errorf("rank = %d, want 2", r)
	}
	// Zero matrix.
	rows = []uint64{0, 0, 0}
	if r := binaryRank64(rows, 3); r != 0 {
		t.Errorf("zero rank = %d, want 0", r)
	}
	// Linear dependence: r3 = r1 XOR r2.
	rows = []uint64{0b110, 0b011, 0b101}
	if r := binaryRank64(rows, 3); r != 2 {
		t.Errorf("dependent rank = %d, want 2", r)
	}
	// Input must not be modified.
	orig := []uint64{0b111, 0b001}
	binaryRank64(orig, 3)
	if orig[0] != 0b111 || orig[1] != 0b001 {
		t.Error("binaryRank64 modified its input")
	}
}

func TestPermIndex5Bijective(t *testing.T) {
	// All 120 permutations of {10,20,30,40,50} must map to distinct
	// indices in [0,120).
	vals := [5]uint32{10, 20, 30, 40, 50}
	seen := make(map[int]bool)
	var recurse func(perm [5]uint32, k int)
	recurse = func(perm [5]uint32, k int) {
		if k == 5 {
			idx := permIndex5(perm)
			if idx < 0 || idx >= 120 {
				t.Fatalf("index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("index %d duplicated", idx)
			}
			seen[idx] = true
			return
		}
		for i := k; i < 5; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(perm, k+1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(vals, 0)
	if len(seen) != 120 {
		t.Errorf("saw %d distinct indices, want 120", len(seen))
	}
}

func TestOnesLetterDistribution(t *testing.T) {
	var counts [5]int
	for b := 0; b < 256; b++ {
		counts[onesLetter(byte(b))]++
	}
	want := [5]int{37, 56, 70, 56, 37}
	if counts != want {
		t.Errorf("letter counts = %v, want %v", counts, want)
	}
}

func TestCrapsThrowLawSumsToOne(t *testing.T) {
	pointProb := map[int]float64{4: 3.0 / 36, 5: 4.0 / 36, 6: 5.0 / 36, 8: 5.0 / 36, 9: 4.0 / 36, 10: 3.0 / 36}
	total := 12.0 / 36
	for k := 2; k <= 2000; k++ {
		for _, pp := range pointProb {
			ep := pp + 1.0/6
			total += pp * math.Pow(1-ep, float64(k-2)) * ep
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("throw-length law sums to %g", total)
	}
}

func TestMissingWordsOnPerfectStream(t *testing.T) {
	// A counter covering all 2^20 words leaves nothing missing.
	var c uint32
	missing := missingWords(20, func() uint32 { c++; return c })
	if missing != 0 {
		t.Errorf("counter stream missing = %g, want 0", missing)
	}
	// A constant stream leaves all but one missing.
	missing = missingWords(20, func() uint32 { return 12345 })
	if missing != monkeySpace-1 {
		t.Errorf("constant stream missing = %g, want %d", missing, monkeySpace-1)
	}
}

func TestResultPAndPassed(t *testing.T) {
	r := Result{PValues: []float64{0.5}}
	if r.P() != 0.5 {
		t.Errorf("single p = %g", r.P())
	}
	if !r.Passed(0.01, 0.99) {
		t.Error("0.5 should pass")
	}
	r = Result{PValues: []float64{0.0000001}}
	if r.Passed(0.01, 0.99) {
		t.Error("extreme p should fail")
	}
	r = Result{}
	if r.P() != 0 {
		t.Error("empty result should have p = 0")
	}
	r = Result{PValues: []float64{0.2, 0.4, 0.6, 0.8}}
	if p := r.P(); p <= 0 || p >= 1 {
		t.Errorf("combined p = %g", p)
	}
	bad := Result{PValues: []float64{0.5}, Err: errTest}
	if bad.Passed(0.01, 0.99) {
		t.Error("errored test must not pass")
	}
}

var errTest = errDummy{}

type errDummy struct{}

func (errDummy) Error() string { return "dummy" }

func TestScaledHelper(t *testing.T) {
	if scaled(100, 1) != 100 || scaled(100, 0.5) != 50 {
		t.Error("scaled arithmetic wrong")
	}
	if scaled(1, 0.001) != 1 {
		t.Error("scaled must clamp to 1")
	}
}

func TestBatteryGoodGeneratorPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("battery run is slow")
	}
	out := RunBattery("mt19937-64", baselines.NewMT19937_64(20240601), Config{})
	if out.Total != 15 {
		t.Fatalf("total = %d", out.Total)
	}
	if out.Passed < 13 {
		for _, r := range out.Results {
			t.Logf("%-28s p=%.6f err=%v", r.Name, r.P(), r.Err)
		}
		t.Errorf("MT19937-64 passed only %d/15", out.Passed)
	}
	if out.KS.D <= 0 || out.KS.D >= 0.5 {
		t.Errorf("closing KS D = %g looks wrong", out.KS.D)
	}
}

func TestBatteryWeakGeneratorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("battery run is slow")
	}
	// The raw 64-bit LCG has famously bad low bits and strong serial
	// structure; the battery must catch it.
	out := RunBattery("lcg64", baselines.NewKnuthLCG(1), Config{})
	if out.Passed > 13 {
		for _, r := range out.Results {
			t.Logf("%-28s p=%.6f", r.Name, r.P())
		}
		t.Errorf("raw LCG passed %d/15 — battery too lenient", out.Passed)
	}
}

func TestBatteryPValuesInRange(t *testing.T) {
	if testing.Short() {
		t.Skip("battery run is slow")
	}
	out := RunBattery("splitmix", baselines.NewSplitMix64(99), Config{Scale: 0.25})
	for _, r := range out.Results {
		if r.Err != nil {
			t.Errorf("%s errored: %v", r.Name, r.Err)
		}
		for _, p := range r.PValues {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Errorf("%s produced p = %g", r.Name, p)
			}
		}
	}
	if out.String() == "" {
		t.Error("outcome string empty")
	}
}

func TestKSStatisticAgainstBattery(t *testing.T) {
	// Sanity that the closing KS machinery matches a direct call.
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	ks, err := stats.KSUniform(ps)
	if err != nil {
		t.Fatal(err)
	}
	if ks.D > 0.12 {
		t.Errorf("evenly spread p-values have D = %g", ks.D)
	}
}
