package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestGammaPExponentialIdentity(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10, 50} {
		got, err := GammaP(1, x)
		if err != nil {
			t.Fatalf("GammaP(1, %g): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(1, %g) = %g, want %g", x, got, want)
		}
	}
}

func TestGammaPErfIdentity(t *testing.T) {
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.01, 0.25, 1, 4, 9} {
		got, err := GammaP(0.5, x)
		if err != nil {
			t.Fatalf("GammaP(0.5, %g): %v", x, err)
		}
		want := math.Erf(math.Sqrt(x))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(0.5, %g) = %g, want %g", x, got, want)
		}
	}
}

func TestGammaPQComplementary(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 10, 100} {
		for _, x := range []float64{0.01, 0.5, 1, 3, 10, 90, 200} {
			p, err1 := GammaP(a, x)
			q, err2 := GammaQ(a, x)
			if err1 != nil || err2 != nil {
				t.Fatalf("GammaP/Q(%g, %g): %v %v", a, x, err1, err2)
			}
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("P+Q at a=%g x=%g = %g, want 1", a, x, p+q)
			}
			if p < 0 || p > 1 || q < 0 || q > 1 {
				t.Errorf("P or Q out of [0,1] at a=%g x=%g: p=%g q=%g", a, x, p, q)
			}
		}
	}
}

func TestGammaPDomainErrors(t *testing.T) {
	if _, err := GammaP(-1, 1); err == nil {
		t.Error("GammaP(-1, 1) should fail")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("GammaP(1, -1) should fail")
	}
	if _, err := GammaQ(0, 1); err == nil {
		t.Error("GammaQ(0, 1) should fail")
	}
	if p, err := GammaP(2, 0); err != nil || p != 0 {
		t.Errorf("GammaP(2, 0) = %g, %v; want 0, nil", p, err)
	}
	if q, err := GammaQ(2, 0); err != nil || q != 1 {
		t.Errorf("GammaQ(2, 0) = %g, %v; want 1, nil", q, err)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Classic critical values: P[X ≤ x] for χ²(df).
	cases := []struct {
		x, df, want float64
	}{
		{3.841458820694124, 1, 0.95},
		{5.991464547107979, 2, 0.95},
		{18.307038053275146, 10, 0.95},
		{0.0039321400000000003, 1, 0.05},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.x, c.df); !almostEqual(got, c.want, 1e-6) {
			t.Errorf("ChiSquareCDF(%g, %g) = %g, want %g", c.x, c.df, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 0.001, 0.02425, 0.2, 0.5, 0.8, 0.999, 1 - 1e-10} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
	if NormalQuantile(0.5) != 0 && math.Abs(NormalQuantile(0.5)) > 1e-12 {
		t.Errorf("Quantile(0.5) = %g", NormalQuantile(0.5))
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile endpoints must be infinite")
	}
	// Known value: Φ⁻¹(0.975) = 1.959963985…
	if math.Abs(NormalQuantile(0.975)-1.959963984540054) > 1e-9 {
		t.Errorf("Quantile(0.975) = %.12f", NormalQuantile(0.975))
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	lambda := 7.3
	sum := 0.0
	for k := 0; k < 100; k++ {
		sum += PoissonPMF(lambda, k)
	}
	if !almostEqual(sum, 1, 1e-10) {
		t.Errorf("Poisson pmf sum = %g, want 1", sum)
	}
}

func TestBinomialLogPMF(t *testing.T) {
	// C(10,3) 0.5^10 = 120/1024.
	got := math.Exp(BinomialLogPMF(10, 3, 0.5))
	want := 120.0 / 1024.0
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("BinomialPMF(10,3,0.5) = %g, want %g", got, want)
	}
	if !math.IsInf(BinomialLogPMF(5, 6, 0.5), -1) {
		t.Error("BinomialLogPMF with k>n should be -Inf")
	}
	if BinomialLogPMF(5, 0, 0) != 0 {
		t.Error("BinomialLogPMF(5,0,0) should be log(1)=0")
	}
}
