package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKolmogorovCDFBounds(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 1000, 10000} {
		prev := -1.0
		for d := 0.0; d <= 1.0; d += 0.01 {
			p := KolmogorovCDF(n, d)
			if p < 0 || p > 1 {
				t.Fatalf("KolmogorovCDF(%d, %g) = %g out of [0,1]", n, d, p)
			}
			// Allow a sub-1e-6 dip where the exact matrix method
			// hands over to the asymptotic tail estimate.
			if p+2e-6 < prev {
				t.Fatalf("KolmogorovCDF(%d, ·) not monotone at d=%g: %g < %g", n, d, p, prev)
			}
			prev = p
		}
	}
}

func TestKolmogorovCDFExactN1(t *testing.T) {
	// For n=1, D = max(U, 1-U), so P[D ≤ d] = 2d - 1 on [1/2, 1].
	for _, d := range []float64{0.5, 0.6, 0.75, 0.9, 0.99} {
		got := KolmogorovCDF(1, d)
		want := 2*d - 1
		if !almostEqual(got, want, 1e-9) {
			t.Errorf("KolmogorovCDF(1, %g) = %g, want %g", d, got, want)
		}
	}
	if got := KolmogorovCDF(1, 0.3); got != 0 {
		t.Errorf("KolmogorovCDF(1, 0.3) = %g, want 0", got)
	}
}

func TestKolmogorovCDFMonteCarloReference(t *testing.T) {
	// Reference values estimated by direct simulation with 200k
	// trials (standard error ≲ 0.0015).
	cases := []struct {
		n    int
		d, p float64
	}{
		{10, 0.2, 0.2527},
		{10, 0.3, 0.7291},
		{10, 0.41, 0.9506},
		{100, 0.1, 0.7467},
		{100, 0.2, 0.99945},
	}
	for _, c := range cases {
		got := KolmogorovCDF(c.n, c.d)
		if math.Abs(got-c.p) > 0.01 {
			t.Errorf("KolmogorovCDF(%d, %g) = %.5f, want ≈%.5f (Monte Carlo)", c.n, c.d, got, c.p)
		}
	}
}

func TestKolmogorovExactVsAsymptotic(t *testing.T) {
	// At large n, the exact matrix value should approach the
	// asymptotic distribution evaluated at sqrt(n)·d.
	n := 2000
	for _, x := range []float64{0.5, 0.8, 1.0, 1.5} {
		d := x / math.Sqrt(float64(n))
		exact := mtwExact(n, d)
		asym := kolmogorovAsymptotic(x)
		if math.Abs(exact-asym) > 0.02 {
			t.Errorf("n=%d x=%g: exact=%g asymptotic=%g differ by more than 0.02", n, x, exact, asym)
		}
	}
}

func TestKSUniformOnUniformSample(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	res, err := KSUniform(vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.001 || res.P > 0.999 {
		t.Errorf("KS p=%g for a genuinely uniform sample; expected non-extreme", res.P)
	}
	if res.D <= 0 || res.D >= 0.1 {
		t.Errorf("KS D=%g looks wrong for n=5000 uniform sample", res.D)
	}
}

func TestKSUniformDetectsNonUniform(t *testing.T) {
	// A sample concentrated in [0, 0.5) must fail decisively.
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.Float64() * 0.5
	}
	res, err := KSUniform(vals)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survival() > 1e-6 {
		t.Errorf("KS failed to reject half-range sample: surv=%g", res.Survival())
	}
	if res.D < 0.4 {
		t.Errorf("KS D=%g, want ≈0.5 for half-range sample", res.D)
	}
}

func TestKSEmptySample(t *testing.T) {
	if _, err := KSUniform(nil); err == nil {
		t.Error("KS on empty sample should fail")
	}
}

func TestKSStatisticExactSmallSample(t *testing.T) {
	// Hand-computed: sample {0.1, 0.2, 0.3} against U[0,1).
	// F_n steps at 1/3, 2/3, 1. D = max over i of
	// max(i/n - x_i, x_i - (i-1)/n) = max(1/3-0.1, 2/3-0.2, 1-0.3)=0.7.
	res, err := KSUniform([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.D, 0.7, 1e-12) {
		t.Errorf("D = %g, want 0.7", res.D)
	}
}

func TestKSDoesNotModifyInput(t *testing.T) {
	vals := []float64{0.9, 0.1, 0.5}
	if _, err := KSUniform(vals); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 0.9 || vals[1] != 0.1 || vals[2] != 0.5 {
		t.Errorf("KSUniform reordered its input: %v", vals)
	}
}

func TestKolmogorovCDFQuickProperties(t *testing.T) {
	// Property: for every n and d, the CDF lies in [0,1] and
	// increases with d.
	f := func(nRaw uint8, d1Raw, d2Raw uint16) bool {
		n := int(nRaw)%200 + 1
		d1 := float64(d1Raw) / 65536
		d2 := float64(d2Raw) / 65536
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		p1 := KolmogorovCDF(n, d1)
		p2 := KolmogorovCDF(n, d2)
		// Tolerate the sub-1e-6 dip at the exact/asymptotic regime
		// boundary (see TestKolmogorovCDFBounds).
		return p1 >= 0 && p2 <= 1 && p1 <= p2+2e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
