// Package stats provides the statistical machinery shared by the
// DIEHARD and TestU01-style batteries: special functions (regularised
// incomplete gamma, error function wrappers), goodness-of-fit tests
// (chi-square, Kolmogorov–Smirnov), and histogram helpers.
//
// All p-values follow the convention that under the null hypothesis
// the returned value is uniformly distributed on [0, 1]; a battery
// declares a test failed when the p-value falls outside a configured
// band (the paper uses 0.01 ≤ p ≤ 0.99).
package stats

import (
	"errors"
	"math"
)

// ErrDomain is returned by functions whose argument is outside the
// mathematically valid domain.
var ErrDomain = errors.New("stats: argument outside domain")

const (
	maxIterations = 1000
	epsilon       = 3e-14
	tiny          = 1e-300
)

// LnGamma returns the natural logarithm of the absolute value of the
// Gamma function at x. It is a thin wrapper over math.Lgamma that
// drops the sign, which is always +1 for the positive arguments used
// by the test batteries.
func LnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// GammaP returns the regularised lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x ≥ 0.
//
// P is computed by the series expansion for x < a+1 and by the
// continued-fraction expansion of Q otherwise, following the
// classical Numerical Recipes decomposition.
func GammaP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return 0, ErrDomain
	case x < 0:
		return 0, ErrDomain
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	q, err := gammaQContinued(a, x)
	return 1 - q, err
}

// GammaQ returns the regularised upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return 0, ErrDomain
	case x < 0:
		return 0, ErrDomain
	case x == 0:
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return 1 - p, err
	}
	return gammaQContinued(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series, valid and fast
// for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIterations; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsilon {
			return sum * math.Exp(-x+a*math.Log(x)-LnGamma(a)), nil
		}
	}
	return 0, errors.New("stats: gamma series failed to converge")
}

// gammaQContinued evaluates Q(a,x) by a modified Lentz continued
// fraction, valid and fast for x ≥ a+1.
func gammaQContinued(a, x float64) (float64, error) {
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIterations; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsilon {
			return math.Exp(-x+a*math.Log(x)-LnGamma(a)) * h, nil
		}
	}
	return 0, errors.New("stats: gamma continued fraction failed to converge")
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p), the standard normal quantile, via
// the Acklam rational approximation refined by one Halley step —
// accurate to ≈ 1e-15 over (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425

	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// PoissonPMF returns e^{-λ} λ^k / k!.
func PoissonPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	return math.Exp(-lambda + float64(k)*math.Log(lambda) - LnGamma(float64(k)+1))
}

// BinomialLogPMF returns log C(n,k) + k log p + (n-k) log(1-p).
func BinomialLogPMF(n, k int, p float64) float64 {
	if k < 0 || k > n || p < 0 || p > 1 {
		return math.Inf(-1)
	}
	if p == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p == 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	lc := LnGamma(float64(n)+1) - LnGamma(float64(k)+1) - LnGamma(float64(n-k)+1)
	return lc + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
}
