package stats

import (
	"math/rand"
	"testing"
)

func TestChiSquareFairDie(t *testing.T) {
	// 600 rolls of a fair die with mildly noisy counts.
	obs := []float64{95, 105, 98, 102, 100, 100}
	exp := []float64{100, 100, 100, 100, 100, 100}
	res, err := ChiSquare(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 5 {
		t.Errorf("df = %g, want 5", res.DF)
	}
	// X² = (25+25+4+4)/100 = 0.58.
	if !almostEqual(res.Statistic, 0.58, 1e-12) {
		t.Errorf("X² = %g, want 0.58", res.Statistic)
	}
	if res.Survival() < 0.9 {
		t.Errorf("survival = %g; this die is plainly fair", res.Survival())
	}
}

func TestChiSquareDetectsLoadedDie(t *testing.T) {
	obs := []float64{300, 60, 60, 60, 60, 60}
	exp := []float64{100, 100, 100, 100, 100, 100}
	res, err := ChiSquare(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survival() > 1e-10 {
		t.Errorf("survival = %g; this die is loaded", res.Survival())
	}
}

func TestChiSquarePoolsSparseCells(t *testing.T) {
	// Expected counts 1 each: with minExpected=5 the 10 cells pool
	// into 2 groups of 5.
	obs := make([]float64, 10)
	exp := make([]float64, 10)
	for i := range obs {
		obs[i] = 1
		exp[i] = 1
	}
	res, err := ChiSquare(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 {
		t.Errorf("df = %g after pooling, want 1", res.DF)
	}
	if res.Statistic != 0 {
		t.Errorf("X² = %g, want 0 for obs==exp", res.Statistic)
	}
}

func TestChiSquareTrailingPool(t *testing.T) {
	// A trailing under-filled accumulator must merge leftwards, not
	// form its own cell.
	obs := []float64{10, 10, 3}
	exp := []float64{10, 10, 3}
	res, err := ChiSquare(obs, exp, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 { // cells: {10}, {10+3}
		t.Errorf("df = %g, want 1", res.DF)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, err := ChiSquare([]float64{1}, []float64{1, 2}, 0, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := ChiSquare(nil, nil, 0, 0); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ChiSquare([]float64{1, 2}, []float64{0, 3}, 0, 0); err == nil {
		t.Error("non-positive expected count should fail")
	}
}

func TestChiSquareUniformBins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	res, err := ChiSquareUniformBins(vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.9999 || res.P < 0.0001 {
		t.Errorf("p = %g for genuine uniforms; expected non-extreme", res.P)
	}
	if _, err := ChiSquareUniformBins(vals, 1); err == nil {
		t.Error("single bin should fail")
	}
}
