package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSResult bundles the outcome of a one-sample Kolmogorov–Smirnov
// test.
type KSResult struct {
	D float64 // KS statistic: sup |F_n(x) - F(x)|
	N int     // sample size
	P float64 // P[D_n ≤ d] under H0 (uniform on [0,1] under H0)
}

// Survival returns the upper-tail probability P[D_n > d], the classic
// "KS p-value".
func (r KSResult) Survival() float64 { return 1 - r.P }

func (r KSResult) String() string {
	return fmt.Sprintf("ks D=%.5f n=%d p=%.6f", r.D, r.N, r.P)
}

// KSUniform runs the one-sample KS test of the values against the
// uniform distribution on [0,1). The input is not modified.
func KSUniform(values []float64) (KSResult, error) {
	return KSTest(values, func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x > 1:
			return 1
		default:
			return x
		}
	})
}

// KSTest runs the one-sample KS test of the values against the
// continuous CDF cdf. The input is not modified.
func KSTest(values []float64, cdf func(float64) float64) (KSResult, error) {
	n := len(values)
	if n == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test on empty sample")
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var d float64
	for i, v := range sorted {
		f := cdf(v)
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	return KSResult{D: d, N: n, P: KolmogorovCDF(n, d)}, nil
}

// KolmogorovCDF returns P[D_n ≤ d] for the one-sample KS statistic
// with sample size n, using the Marsaglia–Tsang–Wang matrix method
// for exact evaluation at small/moderate n and the asymptotic
// Kolmogorov distribution for large n.
//
// Reference: Marsaglia, Tsang, Wang, "Evaluating Kolmogorov's
// Distribution", Journal of Statistical Software 8(18), 2003.
func KolmogorovCDF(n int, d float64) float64 {
	if n <= 0 {
		return math.NaN()
	}
	if d <= 0 {
		return 0
	}
	if d >= 1 {
		return 1
	}
	nf := float64(n)
	s := d * d * nf
	// In the regions where the asymptotic form is accurate to ~7
	// digits, use it; this also keeps the matrix size bounded.
	if s > 7.24 || (s > 3.76 && n > 99) {
		return 1 - 2*math.Exp(-(2.000071+0.331/math.Sqrt(nf)+1.409/nf)*s)
	}
	if n > 5000 {
		// Straight asymptotic Kolmogorov distribution.
		return kolmogorovAsymptotic(math.Sqrt(nf) * d)
	}
	return mtwExact(n, d)
}

// kolmogorovAsymptotic returns K(x) = 1 - 2 Σ (-1)^{k-1} e^{-2k²x²}.
func kolmogorovAsymptotic(x float64) float64 {
	if x < 0.2 {
		return 0
	}
	sum := 0.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k*k) * x * x)
		if k%2 == 1 {
			sum += term
		} else {
			sum -= term
		}
		if term < 1e-16 {
			break
		}
	}
	return 1 - 2*sum
}

// mtwExact implements the Marsaglia–Tsang–Wang exact algorithm:
// P[D_n < d] = n!/n^n * (H^n)[k-1][k-1] where H is an m×m matrix,
// m = 2k-1, k = ceil(n d), h = k - n d.
func mtwExact(n int, d float64) float64 {
	nd := float64(n) * d
	k := int(math.Ceil(nd))
	m := 2*k - 1
	h := float64(k) - nd

	H := make([][]float64, m)
	for i := range H {
		H[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i-j+1 >= 0 {
				H[i][j] = 1
			}
		}
	}
	for i := 0; i < m; i++ {
		H[i][0] -= math.Pow(h, float64(i+1))
		H[m-1][i] -= math.Pow(h, float64(m-i))
	}
	if 2*h-1 > 0 {
		H[m-1][0] += math.Pow(2*h-1, float64(m))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i-j+1 > 0 {
				for g := 1; g <= i-j+1; g++ {
					H[i][j] /= float64(g)
				}
			}
		}
	}

	// Compute H^n with scaling to avoid overflow, tracking a power
	// eQ of 10^140.
	Q, eQ := matPowerScaled(H, n, m)
	s := Q[k-1][k-1]
	for i := 1; i <= n; i++ {
		s = s * float64(i) / float64(n)
		if s < 1e-140 {
			s *= 1e140
			eQ--
		}
	}
	return s * math.Pow(10, float64(eQ)*140)
}

// matPowerScaled raises the m×m matrix H to the n-th power by
// repeated squaring, rescaling by 10^-140 whenever the central entry
// grows past 10^140 and counting the rescalings in eV.
func matPowerScaled(H [][]float64, n, m int) (V [][]float64, eV int) {
	if n == 1 {
		return H, 0
	}
	A, eA := matPowerScaled(H, n/2, m)
	V = matMul(A, A, m)
	eV = 2 * eA
	if n%2 == 1 {
		V = matMul(H, V, m)
	}
	if V[m/2][m/2] > 1e140 {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				V[i][j] *= 1e-140
			}
		}
		eV++
	}
	return V, eV
}

func matMul(A, B [][]float64, m int) [][]float64 {
	C := make([][]float64, m)
	for i := range C {
		C[i] = make([]float64, m)
		for g := 0; g < m; g++ {
			a := A[i][g]
			if a == 0 {
				continue
			}
			row := B[g]
			for j := 0; j < m; j++ {
				C[i][j] += a * row[j]
			}
		}
	}
	return C
}
