// Package expander implements the Gabber–Galil expander graph that
// the hybrid PRNG walks on, both at full production size
// (m = 2^32, i.e. 2^64 vertices per side — the paper's "n = 2^65
// nodes" bipartite graph) and at arbitrary small sizes for analysis
// (mixing-time and expansion measurements).
//
// The graph is defined on vertex set Z_m × Z_m. The seven neighbours
// of (x, y) are
//
//	(x, y), (x, 2x+y), (x, 2x+y+1), (x, 2x+y+2),
//	(x+2y, y), (x+2y+1, y), (x+2y+2, y)
//
// with all arithmetic modulo m (Gabber & Galil, FOCS 1979). The edge
// expansion of the family is at least (2 − √3)/2. Neighbour 0 is the
// identity, so the natural random walk is lazy, hence aperiodic.
package expander

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Degree is the regularity of the Gabber–Galil construction.
const Degree = 7

// Vertex is a point of Z_m × Z_m. At full size (m = 2^32) the 64-bit
// vertex id — X in the high word, Y in the low word — is the random
// number the PRNG emits.
type Vertex struct {
	X, Y uint32
}

// ID packs the vertex into its 64-bit identifier.
func (v Vertex) ID() uint64 { return uint64(v.X)<<32 | uint64(v.Y) }

// VertexFromID unpacks a 64-bit identifier.
func VertexFromID(id uint64) Vertex {
	return Vertex{X: uint32(id >> 32), Y: uint32(id)}
}

// NeighborFull returns the k-th neighbour (0 ≤ k < 7) of v in the
// full-size graph, where m = 2^32 and the modular arithmetic is the
// natural uint32 wraparound. This is the hot path of the generator.
func NeighborFull(v Vertex, k int) Vertex {
	switch k {
	case 0:
		return v
	case 1:
		return Vertex{v.X, 2*v.X + v.Y}
	case 2:
		return Vertex{v.X, 2*v.X + v.Y + 1}
	case 3:
		return Vertex{v.X, 2*v.X + v.Y + 2}
	case 4:
		return Vertex{v.X + 2*v.Y, v.Y}
	case 5:
		return Vertex{v.X + 2*v.Y + 1, v.Y}
	case 6:
		return Vertex{v.X + 2*v.Y + 2, v.Y}
	default:
		panic(fmt.Sprintf("expander: neighbour index %d out of [0,7)", k))
	}
}

// Graph is a Gabber–Galil expander over Z_m × Z_m. The zero value is
// not usable; construct with New or Full.
type Graph struct {
	m    uint64 // side modulus; 1<<32 means the full graph
	full bool
}

// Full returns the production graph with m = 2^32 (2^64 vertex
// labels, the paper's n = 2^65-node bipartite double cover).
func Full() *Graph { return &Graph{m: 1 << 32, full: true} }

// New returns a graph over Z_m × Z_m for 2 ≤ m ≤ 2^16; small graphs
// are used by the analysis and test code. Use Full for the
// production size.
func New(m uint32) (*Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("expander: m = %d too small", m)
	}
	if m > 1<<16 {
		return nil, fmt.Errorf("expander: m = %d too large for the analysis graph; use Full()", m)
	}
	return &Graph{m: uint64(m)}, nil
}

// M returns the side modulus m.
func (g *Graph) M() uint64 { return g.m }

// NumVertices returns m², the number of vertices on one side of the
// bipartition (the label space of the walk).
func (g *Graph) NumVertices() uint64 {
	if g.full {
		return 0 // 2^64 does not fit
	}
	return g.m * g.m
}

// Neighbor returns the k-th neighbour (0 ≤ k < 7) of v.
func (g *Graph) Neighbor(v Vertex, k int) Vertex {
	if g.full {
		return NeighborFull(v, k)
	}
	m := g.m
	x, y := uint64(v.X)%m, uint64(v.Y)%m
	var nx, ny uint64
	switch k {
	case 0:
		nx, ny = x, y
	case 1:
		nx, ny = x, (2*x+y)%m
	case 2:
		nx, ny = x, (2*x+y+1)%m
	case 3:
		nx, ny = x, (2*x+y+2)%m
	case 4:
		nx, ny = (x+2*y)%m, y
	case 5:
		nx, ny = (x+2*y+1)%m, y
	case 6:
		nx, ny = (x+2*y+2)%m, y
	default:
		panic(fmt.Sprintf("expander: neighbour index %d out of [0,7)", k))
	}
	return Vertex{uint32(nx), uint32(ny)}
}

// Neighbors appends the seven neighbours of v to dst and returns it.
func (g *Graph) Neighbors(v Vertex, dst []Vertex) []Vertex {
	for k := 0; k < Degree; k++ {
		dst = append(dst, g.Neighbor(v, k))
	}
	return dst
}

// IsNeighbor reports whether u appears in v's neighbour list (the
// forward maps; the undirected graph also contains the reversed
// edges).
func (g *Graph) IsNeighbor(v, u Vertex) bool {
	for k := 0; k < Degree; k++ {
		if g.Neighbor(v, k) == u {
			return true
		}
	}
	return false
}

// index returns the dense index of v for small graphs.
func (g *Graph) index(v Vertex) uint64 {
	return (uint64(v.X)%g.m)*g.m + uint64(v.Y)%g.m
}

// vertexAt inverts index.
func (g *Graph) vertexAt(i uint64) Vertex {
	return Vertex{uint32(i / g.m), uint32(i % g.m)}
}

// Step advances a walk at v by one step using the low 3 bits of b.
// Values 0–6 select the corresponding neighbour; the value 7 — which
// a raw 3-bit read produces with probability 1/8 — is mapped to the
// identity neighbour 0, doubling the weight of the self-loop. The
// resulting chain is lazy and doubly stochastic (every neighbour map
// is a bijection of Z_m × Z_m), so the uniform distribution remains
// stationary and the walk stays rapidly mixing; see the package
// tests for the measured total-variation decay.
func (g *Graph) Step(v Vertex, b uint64) Vertex {
	k := int(b & 7)
	if k == 7 {
		k = 0
	}
	return g.Neighbor(v, k)
}

// StepFull is the allocation-free fast path of Step for the
// production graph.
func StepFull(v Vertex, b uint64) Vertex {
	k := int(b & 7)
	if k == 7 {
		k = 0
	}
	return NeighborFull(v, k)
}

// Walk performs an l-step random walk from v, drawing 3 bits per
// step from bits, and returns the endpoint.
func (g *Graph) Walk(v Vertex, l int, bits *rng.BitReader) Vertex {
	for i := 0; i < l; i++ {
		v = g.Step(v, bits.Bits(3))
	}
	return v
}

// --- analysis on small graphs --------------------------------------

// WalkDistribution starts a probability mass of 1 at start, pushes
// it through `steps` steps of the lazy walk (the 8-outcome step used
// by the generator, with outcome 7 folded into the self-loop) and
// returns the resulting distribution indexed by dense vertex index.
// Only valid for small graphs.
func (g *Graph) WalkDistribution(start Vertex, steps int) ([]float64, error) {
	if g.full {
		return nil, fmt.Errorf("expander: WalkDistribution needs a small graph")
	}
	n := g.NumVertices()
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[g.index(start)] = 1
	// Step weights: neighbour 0 gets 2/8 (b ∈ {0,7}), others 1/8.
	for s := 0; s < steps; s++ {
		for i := range next {
			next[i] = 0
		}
		for i, p := range cur {
			if p == 0 {
				continue
			}
			v := g.vertexAt(uint64(i))
			next[g.index(g.Neighbor(v, 0))] += p * 2 / 8
			for k := 1; k < Degree; k++ {
				next[g.index(g.Neighbor(v, k))] += p / 8
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}

// TotalVariationFromUniform returns ½·Σ|p_i − 1/n|.
func TotalVariationFromUniform(p []float64) float64 {
	n := float64(len(p))
	var tv float64
	for _, pi := range p {
		tv += math.Abs(pi - 1/n)
	}
	return tv / 2
}

// MixingTV returns the total-variation distance from uniform of the
// walk distribution after `steps` steps from the worst of the given
// start vertices.
func (g *Graph) MixingTV(steps int, starts ...Vertex) (float64, error) {
	if len(starts) == 0 {
		starts = []Vertex{{0, 0}}
	}
	worst := 0.0
	for _, s := range starts {
		p, err := g.WalkDistribution(s, steps)
		if err != nil {
			return 0, err
		}
		if tv := TotalVariationFromUniform(p); tv > worst {
			worst = tv
		}
	}
	return worst, nil
}

// SampledEdgeExpansion estimates the edge expansion α(G) of the
// undirected graph by sampling random vertex subsets of size ≤ n/2
// and returning the smallest |∂U| / |U| observed. The result is an
// upper bound on the true α; the Gabber–Galil bound guarantees
// α ≥ (2 − √3)/2 ≈ 0.134 in the limit, so the sampled value should
// stay comfortably above that on healthy constructions. Only valid
// for small graphs.
func (g *Graph) SampledEdgeExpansion(trials int, maxSubset int, src rng.Source) (float64, error) {
	if g.full {
		return 0, fmt.Errorf("expander: SampledEdgeExpansion needs a small graph")
	}
	n := g.NumVertices()
	if maxSubset <= 0 || uint64(maxSubset) > n/2 {
		maxSubset = int(n / 2)
	}
	best := math.Inf(1)
	inU := make([]bool, n)
	for t := 0; t < trials; t++ {
		size := int(rng.Uint64n(src, uint64(maxSubset))) + 1
		for i := range inU {
			inU[i] = false
		}
		chosen := make([]uint64, 0, size)
		for len(chosen) < size {
			i := rng.Uint64n(src, n)
			if !inU[i] {
				inU[i] = true
				chosen = append(chosen, i)
			}
		}
		// Count undirected boundary edges: for u in U, edges (u, w)
		// with w ∉ U, counting both forward maps from u and forward
		// maps from w into u.
		cut := 0
		for _, i := range chosen {
			v := g.vertexAt(i)
			for k := 1; k < Degree; k++ { // skip the self-loop
				w := g.Neighbor(v, k)
				if !inU[g.index(w)] {
					cut++
				}
			}
		}
		// Edges from outside into U (the reverse direction of the
		// forward maps).
		for i := uint64(0); i < n; i++ {
			if inU[i] {
				continue
			}
			v := g.vertexAt(i)
			for k := 1; k < Degree; k++ {
				w := g.Neighbor(v, k)
				if inU[g.index(w)] {
					cut++
				}
			}
		}
		if ratio := float64(cut) / float64(size); ratio < best {
			best = ratio
		}
	}
	return best, nil
}

// GabberGalilBound is the proven edge-expansion lower bound
// (2 − √3)/2 of the family.
func GabberGalilBound() float64 { return (2 - math.Sqrt(3)) / 2 }
