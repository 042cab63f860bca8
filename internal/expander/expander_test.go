package expander

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/baselines"
	"repro/internal/rng"
)

func TestVertexIDRoundTrip(t *testing.T) {
	f := func(x, y uint32) bool {
		v := Vertex{x, y}
		return VertexFromID(v.ID()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborFullDefinition(t *testing.T) {
	v := Vertex{X: 10, Y: 20}
	want := []Vertex{
		{10, 20}, // identity
		{10, 40}, // (x, 2x+y)
		{10, 41}, // (x, 2x+y+1)
		{10, 42}, // (x, 2x+y+2)
		{50, 20}, // (x+2y, y)
		{51, 20}, // (x+2y+1, y)
		{52, 20}, // (x+2y+2, y)
	}
	for k, w := range want {
		if got := NeighborFull(v, k); got != w {
			t.Errorf("neighbour %d = %v, want %v", k, got, w)
		}
	}
}

func TestNeighborFullWraparound(t *testing.T) {
	v := Vertex{X: math.MaxUint32, Y: math.MaxUint32}
	// 2x+y mod 2^32 = 2(2^32-1) + (2^32-1) = 3·2^32 - 3 ≡ -3.
	if got := NeighborFull(v, 1); got.Y != math.MaxUint32-2 {
		t.Errorf("wraparound neighbour 1 Y = %d, want %d", got.Y, uint32(math.MaxUint32-2))
	}
	if got := NeighborFull(v, 6); got.X != math.MaxUint32 { // x+2y+2 ≡ -1-2+2 = -1
		t.Errorf("wraparound neighbour 6 X = %d, want %d", got.X, uint32(math.MaxUint32))
	}
}

func TestNeighborPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NeighborFull(v, 7) should panic")
		}
	}()
	NeighborFull(Vertex{}, 7)
}

func TestSmallGraphMatchesFullDefinitionModulo(t *testing.T) {
	g, err := New(97)
	if err != nil {
		t.Fatal(err)
	}
	v := Vertex{X: 95, Y: 96}
	for k := 0; k < Degree; k++ {
		got := g.Neighbor(v, k)
		full := NeighborFull(v, k)
		if uint64(got.X) != uint64(full.X)%97 || uint64(got.Y) != uint64(full.Y)%97 {
			t.Errorf("neighbour %d = %v, want full-%v mod 97", k, got, full)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("m=1 should fail")
	}
	if _, err := New(1 << 17); err == nil {
		t.Error("huge m should fail (use Full)")
	}
	g, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 {
		t.Errorf("NumVertices = %d, want 256", g.NumVertices())
	}
}

func TestNeighborMapsAreBijections(t *testing.T) {
	// Each forward map σ_k must be a permutation of Z_m × Z_m —
	// this is what makes the walk doubly stochastic.
	g, err := New(31)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for k := 0; k < Degree; k++ {
		seen := make([]bool, n)
		for i := uint64(0); i < n; i++ {
			w := g.Neighbor(g.vertexAt(i), k)
			idx := g.index(w)
			if seen[idx] {
				t.Fatalf("map %d is not injective at image %v", k, w)
			}
			seen[idx] = true
		}
	}
}

func TestIsNeighbor(t *testing.T) {
	g := Full()
	v := Vertex{123, 456}
	for k := 0; k < Degree; k++ {
		if !g.IsNeighbor(v, g.Neighbor(v, k)) {
			t.Errorf("neighbour %d not recognised", k)
		}
	}
	if g.IsNeighbor(v, Vertex{999999, 999999}) {
		t.Error("non-neighbour recognised as neighbour")
	}
}

func TestNeighborsList(t *testing.T) {
	g := Full()
	ns := g.Neighbors(Vertex{1, 2}, nil)
	if len(ns) != Degree {
		t.Fatalf("got %d neighbours, want %d", len(ns), Degree)
	}
	for k, n := range ns {
		if n != g.Neighbor(Vertex{1, 2}, k) {
			t.Errorf("Neighbors[%d] mismatch", k)
		}
	}
}

func TestStepFoldsSevenToSelfLoop(t *testing.T) {
	g := Full()
	v := Vertex{77, 88}
	if g.Step(v, 7) != v {
		t.Error("step value 7 must be the self-loop")
	}
	if StepFull(v, 7) != v {
		t.Error("StepFull value 7 must be the self-loop")
	}
	if g.Step(v, 15) != v { // only low 3 bits matter
		t.Error("step must mask to 3 bits")
	}
	for b := uint64(0); b < 7; b++ {
		if g.Step(v, b) != g.Neighbor(v, int(b)) {
			t.Errorf("step %d != neighbour %d", b, b)
		}
	}
	if StepFull(v, 3) != NeighborFull(v, 3) {
		t.Error("StepFull disagrees with NeighborFull")
	}
}

func TestWalkDeterministicGivenBits(t *testing.T) {
	g := Full()
	src1 := baselines.NewSplitMix64(11)
	src2 := baselines.NewSplitMix64(11)
	end1 := g.Walk(Vertex{5, 6}, 64, rng.NewBitReader(src1))
	end2 := g.Walk(Vertex{5, 6}, 64, rng.NewBitReader(src2))
	if end1 != end2 {
		t.Error("walk with identical bits must be deterministic")
	}
	src3 := baselines.NewSplitMix64(12)
	end3 := g.Walk(Vertex{5, 6}, 64, rng.NewBitReader(src3))
	if end1 == end3 {
		t.Error("walks with different bits should (generically) diverge")
	}
}

func TestWalkDistributionIsStochastic(t *testing.T) {
	g, _ := New(13)
	p, err := g.WalkDistribution(Vertex{3, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, pi := range p {
		if pi < 0 {
			t.Fatal("negative probability")
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %g", sum)
	}
}

func TestWalkMixesRapidly(t *testing.T) {
	// The heart of the construction: total-variation distance to
	// uniform must decay geometrically. On a 64×64 torus-expander
	// (4096 states) a 64-step walk must be essentially uniform —
	// this is exactly why the paper uses walk length 64.
	g, err := New(64)
	if err != nil {
		t.Fatal(err)
	}
	starts := []Vertex{{0, 0}, {1, 0}, {63, 63}, {31, 7}}
	tv16, err := g.MixingTV(16, starts...)
	if err != nil {
		t.Fatal(err)
	}
	tv64, err := g.MixingTV(64, starts...)
	if err != nil {
		t.Fatal(err)
	}
	if tv64 > 1e-3 {
		t.Errorf("TV after 64 steps = %g, want < 1e-3", tv64)
	}
	if tv64 > tv16/4 && tv16 > 1e-6 {
		t.Errorf("mixing not decaying: TV(16)=%g TV(64)=%g", tv16, tv64)
	}
}

func TestMixingBeatsNonExpanderBaseline(t *testing.T) {
	// Ablation guard: the same walk on a cycle-like graph (replace
	// the GG maps by ±1 moves) mixes polynomially, not
	// exponentially. We emulate by comparing GG TV at step 24
	// against the theoretical slow chain bound; concretely the GG
	// TV must already be tiny where a 1-D diffusion over 4096
	// states would still be ≈1.
	g, _ := New(64)
	tv, err := g.MixingTV(24, Vertex{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.05 {
		t.Errorf("GG expander TV after 24 steps = %g, want < 0.05", tv)
	}
}

func TestSampledEdgeExpansion(t *testing.T) {
	g, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	src := baselines.NewSplitMix64(3)
	alpha, err := g.SampledEdgeExpansion(200, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	// Sampled α is an upper bound on the true α, which in turn is
	// ≥ the asymptotic bound. Random subsets are far from optimal
	// cuts, so expect a healthy margin.
	if alpha < GabberGalilBound() {
		t.Errorf("sampled expansion %g below the Gabber–Galil bound %g — construction broken?",
			alpha, GabberGalilBound())
	}
	if _, err := Full().SampledEdgeExpansion(1, 0, src); err == nil {
		t.Error("expansion sampling on the full graph should fail")
	}
	if _, err := Full().WalkDistribution(Vertex{}, 1); err == nil {
		t.Error("walk distribution on the full graph should fail")
	}
}

func TestGabberGalilBoundValue(t *testing.T) {
	if math.Abs(GabberGalilBound()-0.1339745962155614) > 1e-12 {
		t.Errorf("bound = %g", GabberGalilBound())
	}
}

func TestWalkEndpointUniformityChiSquare(t *testing.T) {
	// Empirical mixing on the full graph: many walks from the SAME
	// start with independent bits; bucket endpoints by their top 3
	// bits of X — counts must be flat.
	g := Full()
	src := baselines.NewMT19937_64(9)
	br := rng.NewBitReader(src)
	const walks = 8192
	var counts [8]float64
	for i := 0; i < walks; i++ {
		end := g.Walk(Vertex{42, 43}, 64, br)
		counts[end.X>>29]++
	}
	mean := float64(walks) / 8
	var x2 float64
	for _, c := range counts {
		d := c - mean
		x2 += d * d / mean
	}
	// χ²(7): reject only at an extreme threshold to keep the test
	// deterministic-stable.
	if x2 > 29 { // p < 1e-4
		t.Errorf("endpoint bucket chi-square = %g (counts %v)", x2, counts)
	}
}
