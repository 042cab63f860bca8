package core

import (
	"testing"
	"testing/quick"

	"repro/internal/baselines"
	"repro/internal/expander"
	"repro/internal/rng"
)

func newBits(seed uint64) *rng.BitReader {
	return rng.NewBitReader(baselines.NewSplitMix64(seed))
}

func TestNewWalkerValidation(t *testing.T) {
	if _, err := NewWalker(nil, Config{}); err == nil {
		t.Error("nil bit source should fail")
	}
	if _, err := NewWalker(newBits(1), Config{WalkLen: -1}); err == nil {
		t.Error("negative walk length should fail")
	}
	if _, err := NewWalker(newBits(1), Config{InitWalkLen: -1}); err == nil {
		t.Error("negative init walk length should fail")
	}
}

func TestWalkerDefaults(t *testing.T) {
	w, err := NewWalker(newBits(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Config()
	if cfg.InitWalkLen != DefaultInitWalkLen || cfg.WalkLen != DefaultWalkLen {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Graph == nil || !cfg.Graph.IsFull() {
		t.Error("default graph must be the full production graph")
	}
}

func TestWalkerDeterministicForSameFeed(t *testing.T) {
	w1, _ := NewWalker(newBits(42), Config{})
	w2, _ := NewWalker(newBits(42), Config{})
	for i := 0; i < 100; i++ {
		if w1.Next() != w2.Next() {
			t.Fatal("identical feed must give identical output stream")
		}
	}
	if w1.Generated() != 100 {
		t.Errorf("Generated = %d, want 100", w1.Generated())
	}
}

func TestWalkerFeedSensitivity(t *testing.T) {
	w1, _ := NewWalker(newBits(1), Config{})
	w2, _ := NewWalker(newBits(2), Config{})
	same := 0
	for i := 0; i < 64; i++ {
		if w1.Next() == w2.Next() {
			same++
		}
	}
	if same != 0 {
		t.Errorf("different feeds agreed on %d/64 outputs", same)
	}
}

func TestWalkerConsumesExpectedBits(t *testing.T) {
	// Algorithm 1 consumes 64 bits (start) + 3·InitWalkLen; each
	// Next consumes 3·WalkLen. Verify via a counting source.
	cs := &rng.CountingSource{Src: baselines.NewSplitMix64(7)}
	br := rng.NewBitReader(cs)
	w, err := NewWalker(br, Config{InitWalkLen: 64, WalkLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	initBits := 64 + 3*64 // 256 bits = 4 words exactly
	if got, want := cs.Count, uint64(initBits/64); got != want {
		t.Errorf("init consumed %d words, want %d", got, want)
	}
	for i := 0; i < 100; i++ {
		w.Next()
	}
	totalBits := initBits + 100*3*64 // 19456 bits / 64 = 304 words
	if got, want := cs.Count, uint64(totalBits/64); got != want {
		t.Errorf("total consumed %d words, want %d", got, want)
	}
}

func TestWalkerOutputIsWalkEndpoint(t *testing.T) {
	// The emitted number must be the id of the current position.
	w, _ := NewWalker(newBits(5), Config{})
	for i := 0; i < 10; i++ {
		v := w.Next()
		if v != w.Position().ID() {
			t.Fatal("output is not the position id")
		}
	}
}

func TestWalkerNextMovesAlongEdges(t *testing.T) {
	// With WalkLen 1, each output must be a neighbour of the
	// previous position (in the walk's forward maps, including the
	// folded self-loop).
	g := expander.Full()
	w, _ := NewWalker(newBits(9), Config{WalkLen: 1})
	prev := w.Position()
	for i := 0; i < 200; i++ {
		w.Next()
		cur := w.Position()
		if !g.IsNeighbor(prev, cur) {
			t.Fatalf("step %d: %v -> %v is not an edge", i, prev, cur)
		}
		prev = cur
	}
}

func TestWalkerSmallGraphStaysInRange(t *testing.T) {
	g, err := expander.New(17)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(newBits(3), Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		w.Next()
		p := w.Position()
		if p.X >= 17 || p.Y >= 17 {
			t.Fatalf("position %v escaped Z_17 × Z_17", p)
		}
	}
}

func TestWalkerFill(t *testing.T) {
	w1, _ := NewWalker(newBits(8), Config{})
	w2, _ := NewWalker(newBits(8), Config{})
	buf := make([]uint64, 64)
	w1.Fill(buf)
	for i, v := range buf {
		if want := w2.Next(); v != want {
			t.Fatalf("Fill[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestWalkerUint64IsNext(t *testing.T) {
	w1, _ := NewWalker(newBits(4), Config{})
	w2, _ := NewWalker(newBits(4), Config{})
	for i := 0; i < 16; i++ {
		if w1.Uint64() != w2.Next() {
			t.Fatal("Uint64 must alias Next")
		}
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, Config{}, func(int) *rng.BitReader { return newBits(0) }); err == nil {
		t.Error("zero-size pool should fail")
	}
	if _, err := NewPool(2, Config{}, nil); err == nil {
		t.Error("nil factory should fail")
	}
}

func TestPoolFillDeterministicAndParallel(t *testing.T) {
	mk := func() (*Pool, error) {
		return NewPool(4, Config{}, func(i int) *rng.BitReader {
			return newBits(uint64(1000 + i))
		})
	}
	p1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, 1003) // deliberately not divisible by 4
	b := make([]uint64, 1003)
	p1.Fill(a)
	p2.Fill(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pool fill not reproducible at %d", i)
		}
	}
	if p1.Size() != 4 {
		t.Errorf("Size = %d", p1.Size())
	}
	if p1.Generated() != 1003 {
		t.Errorf("Generated = %d, want 1003", p1.Generated())
	}
	if p1.Walker(0) == nil || p1.Walker(3) == nil {
		t.Error("walker accessor broken")
	}
}

func TestPoolFillEmptyAndSingle(t *testing.T) {
	p, _ := NewPool(1, Config{}, func(i int) *rng.BitReader { return newBits(uint64(i)) })
	p.Fill(nil) // must not panic
	buf := make([]uint64, 3)
	p.Fill(buf)
	if buf[0] == 0 && buf[1] == 0 && buf[2] == 0 {
		t.Error("single-walker fill produced all zeros")
	}
}

func TestPoolWalkersIndependent(t *testing.T) {
	p, _ := NewPool(3, Config{}, func(i int) *rng.BitReader { return newBits(uint64(i) * 7) })
	a := p.Walker(0).Next()
	b := p.Walker(1).Next()
	c := p.Walker(2).Next()
	if a == b || b == c || a == c {
		t.Error("walkers with distinct feeds should produce distinct values")
	}
}

func TestOutputBitBalance(t *testing.T) {
	// Quick quality smoke: bit density of the output stream.
	w, _ := NewWalker(newBits(123), Config{})
	ones := 0
	const n = 2048
	for i := 0; i < n; i++ {
		v := w.Next()
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	density := float64(ones) / (n * 64)
	if density < 0.48 || density > 0.52 {
		t.Errorf("output bit density %.4f far from 0.5", density)
	}
}

func TestOutputsUniqueProperty(t *testing.T) {
	// Property: short output prefixes from different seeds never
	// collide (they are positions on a 2^64-vertex graph reached
	// through independent walks).
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		w1, err1 := NewWalker(newBits(s1), Config{})
		w2, err2 := NewWalker(newBits(s2), Config{})
		if err1 != nil || err2 != nil {
			return false
		}
		return w1.Next() != w2.Next()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShortWalkAblationChangesStream(t *testing.T) {
	// WalkLen is a real knob: l=1 and l=64 streams must differ from
	// the first output even with identical feeds.
	w1, _ := NewWalker(newBits(6), Config{WalkLen: 1})
	w64, _ := NewWalker(newBits(6), Config{WalkLen: 64})
	if w1.Next() == w64.Next() {
		t.Error("walk length had no effect on the stream")
	}
}
