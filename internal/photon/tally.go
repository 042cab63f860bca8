package photon

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// TallyConfig configures MCML-style spatial grids: diffuse
// reflectance by exit radius, Rd(r), and absorbed energy by depth,
// A(z). Overflow goes to the last bin, as in MCML.
type TallyConfig struct {
	DR float64 // radial bin width [cm]
	NR int     // radial bins
	DZ float64 // depth bin width [cm]
	NZ int     // depth bins
}

func (c TallyConfig) validate() error {
	if c.DR <= 0 || c.NR < 1 || c.DZ <= 0 || c.NZ < 1 {
		return fmt.Errorf("photon: invalid tally grid %+v", c)
	}
	return nil
}

// GridResult extends Result with the spatial tallies.
type GridResult struct {
	Result
	Cfg TallyConfig
	// RdR[i] is the diffuse reflectance per unit area in radial ring
	// i [1/cm²] (weight fraction divided by the ring area).
	RdR []float64
	// AZ[i] is the absorbed weight fraction per unit depth in slab i
	// [1/cm].
	AZ []float64
}

// SimulateGrid runs the transport like Simulate, additionally
// tracking lateral position and recording the Rd(r) and A(z) grids.
func SimulateGrid(t *Tissue, n int64, src rng.Source, cfg TallyConfig) (GridResult, error) {
	if n < 1 {
		return GridResult{}, fmt.Errorf("photon: n = %d < 1", n)
	}
	if err := cfg.validate(); err != nil {
		return GridResult{}, err
	}
	gr := GridResult{
		Result: Result{Photons: n, Absorbed: make([]float64, len(t.Layers))},
		Cfg:    cfg,
		RdR:    make([]float64, cfg.NR),
		AZ:     make([]float64, cfg.NZ),
	}
	n0, n1 := t.NAbove, t.Layers[0].N
	rsp := (n0 - n1) * (n0 - n1) / ((n0 + n1) * (n0 + n1))
	gr.Rsp = rsp

	for i := int64(0); i < n; i++ {
		simulateOne(t, src, &gr.Result, &gr, 1-rsp)
	}
	inv := 1 / float64(n)
	gr.Rd *= inv
	gr.Tt *= inv
	for i := range gr.Absorbed {
		gr.Absorbed[i] *= inv
	}
	for i := range gr.RdR {
		// Ring area 2π r dr with r at the ring centre.
		r := (float64(i) + 0.5) * cfg.DR
		area := 2 * math.Pi * r * cfg.DR
		gr.RdR[i] *= inv / area
	}
	for i := range gr.AZ {
		gr.AZ[i] *= inv / cfg.DZ
	}
	return gr, nil
}

// BeerLambertTransmittance returns the analytic unscattered
// (ballistic) transmittance of a collimated beam through the stack:
// exp(−Σ µtᵢ·dᵢ), ignoring boundary reflections — the classical
// closed form the simulation must reproduce in the scattering-free
// limit.
func BeerLambertTransmittance(t *Tissue) float64 {
	att := 0.0
	for _, l := range t.Layers {
		att += l.Mut() * l.Thickness
	}
	return math.Exp(-att)
}
