package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestGF2RankProbLaw(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {6, 8}, {32, 32}} {
		m, n := dims[0], dims[1]
		max := m
		if n < max {
			max = n
		}
		sum := 0.0
		for r := 0; r <= max; r++ {
			sum += GF2RankProb(m, n, r)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%dx%d rank law sums to %g", m, n, sum)
		}
	}
	if GF2RankProb(4, 4, 5) != 0 || GF2RankProb(4, 4, -1) != 0 {
		t.Error("out-of-range rank probability must be 0")
	}
	// Known 32×32 value.
	if p := GF2RankProb(32, 32, 32); math.Abs(p-0.2888) > 5e-4 {
		t.Errorf("P(rank 32) = %g", p)
	}
}

func TestGF2RankMultiWord(t *testing.T) {
	// 128-column identity-ish matrix: rows with single distinct bits
	// have full rank.
	rows := make([][]uint64, 4)
	rows[0] = []uint64{1, 0}
	rows[1] = []uint64{1 << 63, 0}
	rows[2] = []uint64{0, 1}      // column 64
	rows[3] = []uint64{0, 1 << 5} // column 69
	if r := GF2Rank(rows, 128); r != 4 {
		t.Errorf("rank = %d, want 4", r)
	}
	// Add a dependent row: r4 = r0 XOR r2.
	rows = append(rows, []uint64{1, 1})
	if r := GF2Rank(rows, 128); r != 4 {
		t.Errorf("rank with dependent row = %d, want 4", r)
	}
	// Input rows must not be modified.
	if rows[4][0] != 1 || rows[4][1] != 1 {
		t.Error("GF2Rank modified its input")
	}
	// Degenerate inputs.
	if GF2Rank(nil, 10) != 0 || GF2Rank(rows, 0) != 0 {
		t.Error("degenerate rank should be 0")
	}
}

func TestGF2RankMatchesLawEmpirically(t *testing.T) {
	// Random 64×64 matrices: full rank should occur with probability
	// ≈ Π (1 − 2^-k) ≈ 0.2888.
	rng := rand.New(rand.NewSource(5))
	full := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		rows := make([][]uint64, 64)
		for j := range rows {
			rows[j] = []uint64{rng.Uint64()}
		}
		if GF2Rank(rows, 64) == 64 {
			full++
		}
	}
	frac := float64(full) / trials
	if math.Abs(frac-0.2888) > 0.04 {
		t.Errorf("full-rank fraction = %g, want ≈ 0.2888", frac)
	}
}

func TestStringersAndAccessors(t *testing.T) {
	c := ChiSquareResult{Statistic: 1.5, DF: 3, P: 0.4}
	if c.String() == "" || c.Survival() != 0.6 {
		t.Error("chi-square result accessors broken")
	}
	k := KSResult{D: 0.1, N: 10, P: 0.7}
	if k.String() == "" || math.Abs(k.Survival()-0.3) > 1e-12 {
		t.Error("KS result accessors broken")
	}
}

func TestChiSquareSurvivalEdges(t *testing.T) {
	if ChiSquareSurvival(-1, 3) != 1 || ChiSquareSurvival(1, 0) != 1 {
		t.Error("degenerate survival should be 1")
	}
	if got := ChiSquareSurvival(3.841458820694124, 1); math.Abs(got-0.05) > 1e-6 {
		t.Errorf("survival at the 95%% critical value = %g", got)
	}
}

func TestKolmogorovCDFDegenerateInputs(t *testing.T) {
	if !math.IsNaN(KolmogorovCDF(0, 0.5)) {
		t.Error("n=0 should be NaN")
	}
	if KolmogorovCDF(5, -0.1) != 0 || KolmogorovCDF(5, 1.5) != 1 {
		t.Error("d outside [0,1] should clamp")
	}
	// Large-n path.
	if p := KolmogorovCDF(10000, 0.02); p <= 0 || p >= 1 {
		t.Errorf("large-n CDF = %g", p)
	}
}
