package photon

import (
	"math"
	"testing"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
)

func TestNewTissueValidation(t *testing.T) {
	if _, err := NewTissue(1, 1, nil); err == nil {
		t.Error("empty tissue should fail")
	}
	if _, err := NewTissue(0.5, 1, []Layer{{Mua: 1, Mus: 1, N: 1.4, Thickness: 1}}); err == nil {
		t.Error("ambient n < 1 should fail")
	}
	if _, err := NewTissue(1, 1, []Layer{{Mua: -1, Mus: 1, N: 1.4, Thickness: 1}}); err == nil {
		t.Error("negative µa should fail")
	}
	if _, err := NewTissue(1, 1, []Layer{{Mua: 0, Mus: 0, N: 1.4, Thickness: 1}}); err == nil {
		t.Error("vacuum layer should fail")
	}
	if _, err := NewTissue(1, 1, []Layer{{Mua: 1, Mus: 1, G: 1, N: 1.4, Thickness: 1}}); err == nil {
		t.Error("g = 1 should fail")
	}
	if _, err := NewTissue(1, 1, []Layer{{Mua: 1, Mus: 1, N: 1.4, Thickness: 0}}); err == nil {
		t.Error("zero thickness should fail")
	}
}

func TestFresnel(t *testing.T) {
	// Matched indices: no reflection.
	r, ca2 := fresnel(1.4, 1.4, 0.5)
	if r != 0 || ca2 != 0.5 {
		t.Errorf("matched fresnel = %g, %g", r, ca2)
	}
	// Normal incidence 1.0 → 1.5: R = (0.5/2.5)² = 0.04.
	r, _ = fresnel(1.0, 1.5, 1.0)
	if math.Abs(r-0.04) > 1e-12 {
		t.Errorf("normal incidence R = %g, want 0.04", r)
	}
	// Total internal reflection: 1.5 → 1.0 at grazing angle.
	r, _ = fresnel(1.5, 1.0, 0.1)
	if r != 1 {
		t.Errorf("TIR R = %g, want 1", r)
	}
	// Reflectance is within [0, 1] across angles.
	for ca := 0.01; ca <= 1.0; ca += 0.01 {
		r, _ := fresnel(1.0, 1.4, ca)
		if r < 0 || r > 1 {
			t.Fatalf("fresnel out of range at ca=%g: %g", ca, r)
		}
	}
}

func TestScatterHGUnitVector(t *testing.T) {
	src := baselines.NewSplitMix64(4)
	ux, uy, uz := 0.0, 0.0, 1.0
	for i := 0; i < 10000; i++ {
		ux, uy, uz = scatterHG(0.8, ux, uy, uz, src)
		norm := ux*ux + uy*uy + uz*uz
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("direction norm² = %.12f after %d scatters", norm, i+1)
		}
	}
}

func TestScatterHGMeanCosine(t *testing.T) {
	// ⟨cos θ⟩ of the HG deflection must equal g.
	src := baselines.NewSplitMix64(9)
	for _, g := range []float64{0, 0.5, 0.9} {
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			// Scatter from +z and read the deflection cosine directly.
			_, _, nz := scatterHG(g, 0, 0, 1, src)
			sum += nz
		}
		mean := sum / n
		if math.Abs(mean-g) > 0.01 {
			t.Errorf("g=%g: mean deflection cosine = %.4f", g, mean)
		}
	}
}

func TestSimulateConservation(t *testing.T) {
	res, err := Simulate(ThreeLayerSkin(), 20000, baselines.NewSplitMix64(11))
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Conservation(); math.Abs(c-1) > 0.02 {
		t.Errorf("energy conservation = %.4f, want ≈ 1 (roulette noise only)", c)
	}
	if res.Rd <= 0 || res.Rd >= 1 {
		t.Errorf("Rd = %g", res.Rd)
	}
	if res.StepsPerPhoton() <= 1 {
		t.Errorf("steps/photon = %g", res.StepsPerPhoton())
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, _ := Simulate(ThreeLayerSkin(), 2000, baselines.NewSplitMix64(5))
	b, _ := Simulate(ThreeLayerSkin(), 2000, baselines.NewSplitMix64(5))
	if a.Rd != b.Rd || a.Tt != b.Tt || a.TotalSteps != b.TotalSteps {
		t.Error("simulation not deterministic for equal seeds")
	}
}

func TestSimulateAbsorbingSlab(t *testing.T) {
	// A thick, strongly absorbing, matched-index slab: essentially
	// everything is absorbed, nothing transmitted, Rsp = 0.
	tissue, err := NewTissue(1, 1, []Layer{{Mua: 100, Mus: 1, G: 0, N: 1, Thickness: 10}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tissue, 5000, baselines.NewSplitMix64(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rsp != 0 {
		t.Errorf("matched boundary Rsp = %g", res.Rsp)
	}
	if res.Absorbed[0] < 0.98 {
		t.Errorf("absorbed = %g, want ≈ 1", res.Absorbed[0])
	}
	if res.Tt > 0.001 {
		t.Errorf("Tt = %g through 1000 mean free paths", res.Tt)
	}
}

func TestSimulateThinTransparentSlab(t *testing.T) {
	// Nearly transparent matched slab: almost everything transmits.
	tissue, err := NewTissue(1, 1, []Layer{{Mua: 0.001, Mus: 0.001, G: 0, N: 1, Thickness: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tissue, 5000, baselines.NewSplitMix64(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tt < 0.99 {
		t.Errorf("Tt = %g, want ≈ 1 for a transparent slab", res.Tt)
	}
}

func TestSimulateMismatchedIndexRaisesReflectance(t *testing.T) {
	matched, _ := NewTissue(1, 1, []Layer{{Mua: 0.1, Mus: 100, G: 0.9, N: 1.0, Thickness: 1}})
	mismatched, _ := NewTissue(1, 1, []Layer{{Mua: 0.1, Mus: 100, G: 0.9, N: 1.5, Thickness: 1}})
	rm, _ := Simulate(matched, 10000, baselines.NewSplitMix64(21))
	rx, _ := Simulate(mismatched, 10000, baselines.NewSplitMix64(21))
	if rx.Rsp <= rm.Rsp {
		t.Error("index mismatch should produce specular reflection")
	}
	// Total escape through the top (Rsp+Rd) differs between the two;
	// both must conserve energy.
	if math.Abs(rm.Conservation()-1) > 0.02 || math.Abs(rx.Conservation()-1) > 0.02 {
		t.Error("conservation violated")
	}
}

func TestSimulateWithHybridPRNG(t *testing.T) {
	w, err := core.NewWalker(bitsource.Glibc(31), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(ThreeLayerSkin(), 5000, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Conservation()-1) > 0.03 {
		t.Errorf("conservation with hybrid PRNG = %g", res.Conservation())
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(ThreeLayerSkin(), 0, baselines.NewSplitMix64(1)); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestCountClashes(t *testing.T) {
	// 200k draws truncated to 16 bits: heavy birthday collisions.
	st, err := CountClashes(baselines.NewSplitMix64(2), 200000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicates == 0 {
		t.Error("16-bit init must collide at 200k photons")
	}
	// Same draws at 64 bits: essentially none.
	st64, err := CountClashes(baselines.NewSplitMix64(2), 200000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st64.Duplicates != 0 {
		t.Errorf("64-bit init collided %d times in 200k", st64.Duplicates)
	}
	if st.DupRate() <= st64.DupRate() {
		t.Error("wider init values must reduce the clash rate")
	}
	if _, err := CountClashes(baselines.NewSplitMix64(1), 0, 32); err == nil {
		t.Error("photons=0 should fail")
	}
	if _, err := CountClashes(baselines.NewSplitMix64(1), 10, 65); err == nil {
		t.Error("valueBits=65 should fail")
	}
	if (ClashStats{}).DupRate() != 0 {
		t.Error("empty clash stats rate should be 0")
	}
}

// DupRate returns the duplicate fraction.
func (c ClashStats) DupRate() float64 {
	if c.Photons == 0 {
		return 0
	}
	return float64(c.Duplicates) / float64(c.Photons)
}

func TestClashRateMWCVersusHybrid(t *testing.T) {
	// The paper's quality claim in miniature: CUDAMCML's 32-bit MWC
	// initialisation collides measurably at large photon counts
	// (scaled: 20-bit window at 100k photons); the hybrid PRNG's
	// 64-bit ids do not.
	mwc := baselines.NewMWCForThread(0, 1234)
	st32, err := CountClashes(mwc, 100000, 20)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := core.NewWalker(bitsource.Glibc(77), core.Config{})
	st64, err := CountClashes(w, 100000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st32.Duplicates <= st64.Duplicates {
		t.Errorf("MWC/20-bit dups %d should exceed hybrid/64-bit dups %d",
			st32.Duplicates, st64.Duplicates)
	}
}

func TestFigure8Shape(t *testing.T) {
	// Hybrid ≈ 20% faster than the original across photon counts.
	steps := 300.0
	for _, n := range []int64{1_000_000, 16_000_000, 64_000_000} {
		orig, err := SimulateTiming(VariantOriginal, n, steps)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := SimulateTiming(VariantHybrid, n, steps)
		if err != nil {
			t.Fatal(err)
		}
		speedup := 1 - hyb.SimNs/orig.SimNs
		if speedup < 0.10 || speedup > 0.35 {
			t.Errorf("photons=%d: speedup = %.0f%%, want ≈ 20%%", n, 100*speedup)
		}
	}
}

func TestFigure8TimeScalesLinearly(t *testing.T) {
	a, _ := SimulateTiming(VariantHybrid, 1_000_000, 300)
	b, _ := SimulateTiming(VariantHybrid, 8_000_000, 300)
	ratio := b.SimNs / a.SimNs
	if ratio < 6.5 || ratio > 9.5 {
		t.Errorf("8× photons took %.1f× time", ratio)
	}
}

func TestSimulateTimingValidation(t *testing.T) {
	if _, err := SimulateTiming(VariantHybrid, 0, 10); err == nil {
		t.Error("photons=0 should fail")
	}
	if _, err := SimulateTiming(VariantHybrid, 10, 0); err == nil {
		t.Error("steps=0 should fail")
	}
	if _, err := SimulateTiming("bogus", 10, 10); err == nil {
		t.Error("unknown variant should fail")
	}
}

func TestMeasuredStepsFeedTimingModel(t *testing.T) {
	// End-to-end: measure the real mean interaction count, then time
	// the simulated platform with it.
	res, err := Simulate(ThreeLayerSkin(), 3000, baselines.NewSplitMix64(17))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateTiming(VariantHybrid, 1_000_000, res.StepsPerPhoton())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimNs <= 0 {
		t.Error("no simulated time")
	}
}
