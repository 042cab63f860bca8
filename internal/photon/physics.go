// Package photon implements the paper's second application: Monte
// Carlo photon migration through layered tissue (Section VI), an
// MCML/CUDAMCML-style variance-reduction simulation — photon packets
// carry a weight, deposit a fraction at every interaction site,
// scatter by the Henyey–Greenstein phase function, refract/reflect
// at layer boundaries by Fresnel's laws and die by Russian roulette.
//
// The physics runs for real against any rng.Source; the Figure 8
// timing comparison against the CUDAMCML baseline runs on the
// simulated platform (see sim.go).
package photon

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Layer is one tissue layer.
type Layer struct {
	Mua       float64 // absorption coefficient [1/cm]
	Mus       float64 // scattering coefficient [1/cm]
	G         float64 // scattering anisotropy ⟨cos θ⟩
	N         float64 // refractive index
	Thickness float64 // [cm]
}

// Mut returns the total interaction coefficient µa + µs.
func (l Layer) Mut() float64 { return l.Mua + l.Mus }

// Tissue is a stack of layers with ambient media above and below.
type Tissue struct {
	NAbove float64
	NBelow float64
	Layers []Layer
	bounds []float64 // cumulative z of layer bottoms
}

// NewTissue validates and finalises a tissue stack.
func NewTissue(nAbove, nBelow float64, layers []Layer) (*Tissue, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("photon: tissue needs at least one layer")
	}
	if nAbove < 1 || nBelow < 1 {
		return nil, fmt.Errorf("photon: ambient refractive indices must be ≥ 1")
	}
	t := &Tissue{NAbove: nAbove, NBelow: nBelow, Layers: layers}
	z := 0.0
	for i, l := range layers {
		if l.Mua < 0 || l.Mus < 0 || l.Thickness <= 0 || l.N < 1 {
			return nil, fmt.Errorf("photon: layer %d has invalid parameters %+v", i, l)
		}
		if l.G <= -1 || l.G >= 1 {
			return nil, fmt.Errorf("photon: layer %d anisotropy %g outside (−1, 1)", i, l.G)
		}
		if l.Mut() == 0 {
			return nil, fmt.Errorf("photon: layer %d is vacuum (µa = µs = 0)", i)
		}
		z += l.Thickness
		t.bounds = append(t.bounds, z)
	}
	return t, nil
}

// top returns the z of the top of layer i.
func (t *Tissue) top(i int) float64 {
	if i == 0 {
		return 0
	}
	return t.bounds[i-1]
}

// ThreeLayerSkin returns the paper-style three-layer demo medium
// (epidermis / dermis / subcutaneous fat, generic optical
// coefficients at ~633 nm).
func ThreeLayerSkin() *Tissue {
	t, err := NewTissue(1.0, 1.4, []Layer{
		{Mua: 3.0, Mus: 100, G: 0.8, N: 1.4, Thickness: 0.01},
		{Mua: 0.3, Mus: 120, G: 0.9, N: 1.4, Thickness: 0.2},
		{Mua: 0.1, Mus: 70, G: 0.8, N: 1.4, Thickness: 0.5},
	})
	if err != nil {
		panic(err) // static configuration, cannot fail
	}
	return t
}

// Result accumulates the simulation tallies.
type Result struct {
	Photons       int64
	Rsp           float64   // specular reflection at entry
	Rd            float64   // diffuse reflectance (weight fraction)
	Tt            float64   // transmittance
	Absorbed      []float64 // per-layer absorbed fraction
	TotalSteps    int64     // interaction sites over all photons
	RouletteKills int64
}

// StepsPerPhoton returns the mean number of interaction sites.
func (r Result) StepsPerPhoton() float64 {
	if r.Photons == 0 {
		return 0
	}
	return float64(r.TotalSteps) / float64(r.Photons)
}

// Conservation returns Rsp + Rd + Tt + ΣA, which must be ≈ 1.
func (r Result) Conservation() float64 {
	s := r.Rsp + r.Rd + r.Tt
	for _, a := range r.Absorbed {
		s += a
	}
	return s
}

const (
	rouletteThreshold = 1e-4
	rouletteChance    = 0.1
	maxSteps          = 100000
)

// Simulate launches n photon packets straight down at the origin and
// returns the tallies. Deterministic given src.
func Simulate(t *Tissue, n int64, src rng.Source) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("photon: n = %d < 1", n)
	}
	res := Result{Photons: n, Absorbed: make([]float64, len(t.Layers))}
	// Specular reflection at the top surface.
	n0, n1 := t.NAbove, t.Layers[0].N
	rsp := (n0 - n1) * (n0 - n1) / ((n0 + n1) * (n0 + n1))
	res.Rsp = rsp

	inv := 1 / float64(n)
	for i := int64(0); i < n; i++ {
		simulateOne(t, src, &res, nil, 1-rsp)
	}
	// Normalise tallies.
	res.Rd *= inv
	res.Tt *= inv
	for i := range res.Absorbed {
		res.Absorbed[i] *= inv
	}
	return res, nil
}

// simulateOne transports one packet with initial weight w0, tallying
// into res. With a non-nil grid (whose Result is res) it also bins the
// diffuse exit radius into grid.RdR and each deposit's depth into
// grid.AZ. No draw depends on x or y, so the slab tallies are the same
// with or without a grid.
func simulateOne(t *Tissue, src rng.Source, res *Result, grid *GridResult, w0 float64) {
	x, y, z := 0.0, 0.0, 0.0
	ux, uy, uz := 0.0, 0.0, 1.0
	layer := 0
	w := w0

	for step := 0; step < maxSteps; step++ {
		l := t.Layers[layer]
		mut := l.Mut()
		// Sample a free path.
		u := rng.Float64(src)
		if u <= 0 {
			u = 1e-12
		}
		s := -math.Log(u) / mut

		// Does the path cross a boundary?
		for s > 0 {
			var db float64
			if uz > 0 {
				db = (t.bounds[layer] - z) / uz
			} else if uz < 0 {
				db = (t.top(layer) - z) / uz
			} else {
				db = math.Inf(1)
			}
			if db > s {
				// Interaction inside the layer.
				x += s * ux
				y += s * uy
				z += s * uz
				s = 0
				break
			}
			// Move to the boundary and resolve it.
			x += db * ux
			y += db * uy
			z += db * uz
			s = (s - db) * mut // residual, rescaled below if µt changes

			wasUp := uz < 0
			exited, newLayer := crossBoundary(t, layer, &ux, &uy, &uz, src, res, w)
			if exited {
				if grid != nil && wasUp {
					// Diffuse reflectance: bin by exit radius.
					bin := int(math.Sqrt(x*x+y*y) / grid.Cfg.DR)
					grid.RdR[min(bin, grid.Cfg.NR-1)] += w
				}
				return
			}
			if newLayer != layer {
				// Rescale residual path to the new layer's µt.
				s /= t.Layers[newLayer].Mut()
				layer = newLayer
			} else {
				// Internal reflection: same layer, same µt.
				s /= mut
			}
			mut = t.Layers[layer].Mut()
		}

		// Absorb.
		res.TotalSteps++
		lcur := t.Layers[layer]
		dw := w * lcur.Mua / lcur.Mut()
		res.Absorbed[layer] += dw
		if grid != nil {
			grid.AZ[max(0, min(int(z/grid.Cfg.DZ), grid.Cfg.NZ-1))] += dw
		}
		w -= dw

		// Roulette.
		if w < rouletteThreshold {
			if rng.Float64(src) < rouletteChance {
				w /= rouletteChance
			} else {
				res.RouletteKills++
				return
			}
		}

		// Scatter (Henyey–Greenstein).
		ux, uy, uz = scatterHG(lcur.G, ux, uy, uz, src)
	}
	// Pathological packet: deposit the remainder locally to preserve
	// conservation.
	res.Absorbed[layer] += w
}

// crossBoundary handles a packet arriving at the top (uz < 0) or
// bottom (uz > 0) of `layer`: Fresnel reflection keeps it inside
// (direction mirrored), transmission moves it to the adjacent layer
// or out of the tissue (tallying Rd/Tt with weight w). It returns
// whether the packet left the tissue and the (possibly new) layer.
func crossBoundary(t *Tissue, layer int, ux, uy, uz *float64, src rng.Source, res *Result, w float64) (exited bool, newLayer int) {
	ni := t.Layers[layer].N
	var nt float64
	goingDown := *uz > 0
	if goingDown {
		if layer == len(t.Layers)-1 {
			nt = t.NBelow
		} else {
			nt = t.Layers[layer+1].N
		}
	} else {
		if layer == 0 {
			nt = t.NAbove
		} else {
			nt = t.Layers[layer-1].N
		}
	}
	ca1 := math.Abs(*uz)
	r, ca2 := fresnel(ni, nt, ca1)
	if rng.Float64(src) <= r {
		// Reflect: mirror uz.
		*uz = -*uz
		return false, layer
	}
	// Transmit: refract the direction.
	scale := ni / nt
	*ux *= scale
	*uy *= scale
	if goingDown {
		*uz = ca2
		if layer == len(t.Layers)-1 {
			res.Tt += w
			return true, layer
		}
		return false, layer + 1
	}
	*uz = -ca2
	if layer == 0 {
		res.Rd += w
		return true, layer
	}
	return false, layer - 1
}

// fresnel returns the unpolarised Fresnel reflectance for incidence
// cosine ca1 between indices ni → nt, and the transmission cosine.
func fresnel(ni, nt, ca1 float64) (r, ca2 float64) {
	if ni == nt {
		return 0, ca1
	}
	sa1 := math.Sqrt(1 - ca1*ca1)
	sa2 := ni / nt * sa1
	if sa2 >= 1 {
		return 1, 0 // total internal reflection
	}
	ca2 = math.Sqrt(1 - sa2*sa2)
	if ca1 > 1-1e-12 {
		// Normal incidence.
		rn := (ni - nt) / (ni + nt)
		return rn * rn, ca2
	}
	// General case: average of s- and p-polarised reflectances.
	rs := (ni*ca1 - nt*ca2) / (ni*ca1 + nt*ca2)
	rp := (ni*ca2 - nt*ca1) / (ni*ca2 + nt*ca1)
	return (rs*rs + rp*rp) / 2, ca2
}

// scatterHG samples the Henyey–Greenstein deflection cosine for
// anisotropy g, a uniform azimuth, and rotates the direction.
func scatterHG(g, ux, uy, uz float64, src rng.Source) (nx, ny, nz float64) {
	var ct float64
	u := rng.Float64(src)
	if g == 0 {
		ct = 2*u - 1
	} else {
		tmp := (1 - g*g) / (1 - g + 2*g*u)
		ct = (1 + g*g - tmp*tmp) / (2 * g)
		if ct < -1 {
			ct = -1
		}
		if ct > 1 {
			ct = 1
		}
	}
	st := math.Sqrt(1 - ct*ct)
	phi := 2 * math.Pi * rng.Float64(src)
	cp, sp := math.Cos(phi), math.Sin(phi)

	if math.Abs(uz) > 0.99999 {
		nx = st * cp
		ny = st * sp
		nz = ct * math.Copysign(1, uz)
		return
	}
	den := math.Sqrt(1 - uz*uz)
	nx = st*(ux*uz*cp-uy*sp)/den + ux*ct
	ny = st*(uy*uz*cp+ux*sp)/den + uy*ct
	nz = -den*st*cp + uz*ct
	return
}
