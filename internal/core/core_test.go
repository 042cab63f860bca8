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

// newWalkers builds n walkers, walker i fed by newBits(seed(i)).
func newWalkers(t *testing.T, n int, seed func(i int) uint64) []*Walker {
	t.Helper()
	ws := make([]*Walker, n)
	for i := range ws {
		w, err := NewWalker(newBits(seed(i)), Config{})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

func generated(ws []*Walker) uint64 {
	var total uint64
	for _, w := range ws {
		total += w.Generated()
	}
	return total
}

func TestPoolFillDeterministicAndParallel(t *testing.T) {
	seed := func(i int) uint64 { return uint64(1000 + i) }
	w1, w2 := newWalkers(t, 4, seed), newWalkers(t, 4, seed)
	a := make([]uint64, 1003) // deliberately not divisible by 4
	b := make([]uint64, 1003)
	FillSplit(w1, a)
	FillSplit(w2, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split fill not reproducible at %d", i)
		}
	}
	if g := generated(w1); g != 1003 {
		t.Errorf("Generated = %d, want 1003", g)
	}
}

func TestPoolFillEmptyAndSingle(t *testing.T) {
	ws := newWalkers(t, 1, func(i int) uint64 { return uint64(i) })
	FillSplit(ws, nil) // must not panic
	buf := make([]uint64, 3)
	FillSplit(ws, buf)
	if buf[0] == 0 && buf[1] == 0 && buf[2] == 0 {
		t.Error("single-walker fill produced all zeros")
	}
}

func TestPoolWalkersIndependent(t *testing.T) {
	ws := newWalkers(t, 3, func(i int) uint64 { return uint64(i) * 7 })
	var v [3]uint64 // one number per walker
	FillSplit(ws, v[:])
	if v[0] == v[1] || v[1] == v[2] || v[0] == v[2] {
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
