package stats

import (
	"fmt"
	"math"
)

// TestResult is the outcome of one battery test: its name, an
// optional description and the p-values it produced, each U[0,1]
// under H0. DIEHARD (internal/diehard) and the TestU01-style
// batteries (internal/testu01) both report their tests this way and
// judge them by Passed.
type TestResult struct {
	Name        string
	Description string
	PValues     []float64
	Err         error
}

// P returns the test's single decision p-value: the value itself
// when the test yields one, or the KS-combined p-value of the set.
func (r TestResult) P() float64 {
	switch len(r.PValues) {
	case 0:
		return 0
	case 1:
		return r.PValues[0]
	default:
		ks, err := KSUniform(r.PValues)
		if err != nil {
			return 0
		}
		// The KS CDF value is itself U[0,1] under H0.
		return ks.P
	}
}

// extremeP is the per-p-value failure threshold. Marsaglia's reading
// is that a test fails outright when any of its p-values is 0 or 1
// "to six places"; TestU01 flags p-values outside [1e-10, 1-1e-10]
// as clear failures and [1e-4, 1e-1] as suspect. 10^-4 is the
// conservative version of both: with ~10 p-values per test the
// false-alarm rate stays ≈ 0.2%.
const extremeP = 1e-4

// Passed applies the batteries' decision rule: the test ran without
// error, no p-value lies below extremeP or above 1 − extremeP, and
// the combined p-value P lies in the band [lo, hi].
func (r TestResult) Passed(lo, hi float64) bool {
	if r.Err != nil {
		return false
	}
	for _, p := range r.PValues {
		if p < extremeP || p > 1-extremeP {
			return false
		}
	}
	p := r.P()
	return p >= lo && p <= hi
}

// BinomialSurvival returns P[X ≥ k] for X ~ Binomial(n, p), summed
// exactly in log space (n in this repository is a battery size, tens
// at most, so direct summation is both exact enough and cheap).
func BinomialSurvival(n, k int, p float64) float64 {
	if n < 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += math.Exp(BinomialLogPMF(n, i, p))
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// RequiredPasses returns the minimum pass count a battery of total
// independent tests must reach, when each test false-alarms with
// probability perTestAlpha under H0, for the battery verdict itself
// to false-alarm with probability at most batteryAlpha.
//
// It is the shared calibration rule behind every pass/fail gate in
// this repository — the single-stream Table II/III guards
// (quality_long_test.go) and the cross-stream battery
// (internal/crossstream) — so tolerances are derived from the band,
// not hardcoded: the allowed failure count f is the smallest f with
// P[Binomial(total, perTestAlpha) > f] ≤ batteryAlpha, and the
// result is total − f.
//
// Calibration notes for this repo's batteries:
//   - DIEHARD uses the paper's pass band [0.01, 0.99], so
//     perTestAlpha = 0.02; RequiredPasses(15, 0.02, 0.05) = 14,
//     the "allow one borderline band failure" rule the long tests
//     used to hardcode.
//   - The TestU01-style batteries pass on [0.001, 0.999] plus the
//     per-p-value extreme rule (TestResult.Passed), an effective
//     perTestAlpha ≈ 0.01 for the multi-p tests;
//     RequiredPasses(15, 0.01, 0.05) = 14.
func RequiredPasses(total int, perTestAlpha, batteryAlpha float64) int {
	if total <= 0 {
		return 0
	}
	if !(perTestAlpha > 0 && perTestAlpha < 1) || !(batteryAlpha > 0 && batteryAlpha < 1) {
		panic(fmt.Sprintf("stats: RequiredPasses alphas outside (0,1): %g, %g", perTestAlpha, batteryAlpha))
	}
	for f := 0; f <= total; f++ {
		if BinomialSurvival(total, f+1, perTestAlpha) <= batteryAlpha {
			return total - f
		}
	}
	return 0
}

// BonferroniZ returns the two-sided |z| threshold at which one of m
// simultaneous normal statistics is declared a failure while keeping
// the family-wise false-alarm rate at alpha: the (1 − alpha/2m)
// normal quantile. Cross-stream correlation and avalanche checks use
// it so their thresholds scale with how many pairs they scan instead
// of being tuned by hand.
func BonferroniZ(m int, alpha float64) float64 {
	if m < 1 {
		m = 1
	}
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("stats: BonferroniZ alpha %g outside (0,1)", alpha))
	}
	p := 1 - alpha/(2*float64(m))
	return NormalQuantile(p)
}
