package hybridprng

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	g, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.Uint64() == g.Uint64() {
		t.Error("successive values identical")
	}
	if g.Generated() != 2 {
		t.Errorf("Generated = %d", g.Generated())
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(WithWalkLength(0)); err == nil {
		t.Error("walk length 0 should fail")
	}
	if _, err := New(WithInitWalkLength(-1)); err == nil {
		t.Error("negative init walk should fail")
	}
	// A checkpoint cannot restore a walk longer than MaxWalkLen, so no
	// option may build one.
	if _, err := New(WithWalkLength(MaxWalkLen + 1)); err == nil {
		t.Error("walk length above the checkpoint bound should fail")
	}
	if _, err := New(WithInitWalkLength(MaxWalkLen + 1)); err == nil {
		t.Error("init walk length above the checkpoint bound should fail")
	}
	if _, err := New(WithFeed("bogus")); err == nil {
		t.Error("unknown feed should fail")
	}
	for _, feed := range []string{FeedGlibc, FeedANSIC, FeedSplitMix} {
		if _, err := New(WithFeed(feed), WithSeed(1)); err != nil {
			t.Errorf("feed %q: %v", feed, err)
		}
	}
}

func TestSeededReproducibility(t *testing.T) {
	g1, _ := New(WithSeed(42))
	g2, _ := New(WithSeed(42))
	for i := 0; i < 100; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatal("seeded generators diverged")
		}
	}
	g3, _ := New(WithSeed(43))
	if g1.Uint64() == g3.Uint64() {
		t.Error("different seeds should give different streams")
	}
}

func TestUnseededGeneratorsDiffer(t *testing.T) {
	g1, _ := New()
	g2, _ := New()
	same := 0
	for i := 0; i < 32; i++ {
		if g1.Uint64() == g2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Error("entropy-seeded generators produced equal values")
	}
}

func TestFloat64Range(t *testing.T) {
	g, _ := New(WithSeed(7))
	var s float64
	for i := 0; i < 20000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g", v)
		}
		s += v
	}
	if mean := s / 20000; mean < 0.48 || mean > 0.52 {
		t.Errorf("mean = %g", mean)
	}
}

func TestUint64nAndIntn(t *testing.T) {
	g, _ := New(WithSeed(8))
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := g.Intn(10)
		counts[v]++
	}
	for d, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("digit %d count %d", d, c)
		}
	}
	if v := g.Uint64n(1); v != 0 {
		t.Errorf("Uint64n(1) = %d", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) should panic")
			}
		}()
		g.Intn(0)
	}()
}

func TestNormFloat64Moments(t *testing.T) {
	g, _ := New(WithSeed(9))
	var sum, sum2 float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := g.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %g", variance)
	}
}

func TestFillMatchesSequential(t *testing.T) {
	g1, _ := New(WithSeed(3))
	g2, _ := New(WithSeed(3))
	buf := make([]uint64, 100)
	g1.Fill(buf)
	for i, v := range buf {
		if w := g2.Uint64(); v != w {
			t.Fatalf("Fill[%d] = %d, want %d", i, v, w)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	g, _ := New(WithSeed(5))
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatal("shuffle lost elements")
		}
	}
	moved := 0
	for i, v := range xs {
		if v != i {
			moved++
		}
	}
	if moved < 50 {
		t.Errorf("only %d/100 elements moved", moved)
	}
}

func TestMathRandSource(t *testing.T) {
	g, _ := New(WithSeed(11))
	r := rand.New(g.MathRandSource())
	v := r.Intn(1000)
	if v < 0 || v >= 1000 {
		t.Errorf("Intn via math/rand = %d", v)
	}
	p := r.Perm(10)
	if len(p) != 10 {
		t.Error("Perm broken")
	}
	if f := r.Float64(); f < 0 || f >= 1 {
		t.Errorf("Float64 via math/rand = %g", f)
	}
	// Int63 must be non-negative.
	for i := 0; i < 1000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestSharedConcurrent(t *testing.T) {
	s, err := NewShared(WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, 8)
	for i := 0; i < 8; i++ {
		seen[i] = make(map[uint64]bool)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				seen[i][s.Uint64()] = true
			}
			_ = s.Float64()
		}(i)
	}
	wg.Wait()
	all := make(map[uint64]bool)
	for _, m := range seen {
		for v := range m {
			if all[v] {
				t.Fatal("duplicate value across goroutines")
			}
			all[v] = true
		}
	}
}

func TestParallelFillDeterministic(t *testing.T) {
	p1, err := NewParallel(4, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewParallel(4, WithSeed(21))
	a := make([]uint64, 1001)
	b := make([]uint64, 1001)
	p1.Fill(a)
	p2.Fill(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel fill not reproducible")
		}
	}
	if p1.Workers() != 4 {
		t.Errorf("Workers = %d", p1.Workers())
	}
	if p1.Generated() != 1001 {
		t.Errorf("Generated = %d", p1.Generated())
	}
}

func TestParallelWorkersIndependent(t *testing.T) {
	p, _ := NewParallel(3, WithSeed(33))
	var wg sync.WaitGroup
	outs := make([][]uint64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := p.Worker(i)
			for j := 0; j < 500; j++ {
				outs[i] = append(outs[i], g.Uint64())
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, o := range outs {
		for _, v := range o {
			if seen[v] {
				t.Fatal("cross-worker duplicate")
			}
			seen[v] = true
		}
	}
}

func TestParallelValidation(t *testing.T) {
	if _, err := NewParallel(0); err == nil {
		t.Error("zero workers should fail")
	}
	if _, err := NewParallel(2, WithWalkLength(-1)); err == nil {
		t.Error("bad option should fail")
	}
	if _, err := NewShared(WithFeed("bogus")); err == nil {
		t.Error("bad shared option should fail")
	}
}

func TestHealthMonitoringOption(t *testing.T) {
	if _, err := New(WithHealthMonitoring(0)); err == nil {
		t.Error("hMin 0 should fail")
	}
	if _, err := New(WithHealthMonitoring(9)); err == nil {
		t.Error("hMin 9 should fail")
	}
	g, err := New(WithSeed(7), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		g.Uint64()
	}
	if err := g.HealthErr(); err != nil {
		t.Errorf("healthy feed reported %v", err)
	}
	// A monitored generator is checkpointable: the monitor is
	// unwrapped (it used to defeat the feed-tag switch and fail) and
	// its state rides along in the blob.
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal of a monitored generator failed: %v", err)
	}
	restored := new(Generator)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if monitor(restored.w) == nil {
		t.Error("restored generator lost its health monitor")
	}
	for i := 0; i < 100; i++ {
		if g.Uint64() != restored.Uint64() {
			t.Fatal("monitored restore diverged")
		}
	}
	// Unmonitored generators report nil.
	g2, _ := New(WithSeed(8))
	if g2.HealthErr() != nil {
		t.Error("unmonitored generator must report nil health")
	}
	// Pool variant.
	p, err := NewParallel(3, WithSeed(9), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, 10000)
	p.Fill(buf)
	if err := p.HealthErr(); err != nil {
		t.Errorf("healthy pool reported %v", err)
	}
	p2, _ := NewParallel(2, WithSeed(10))
	if p2.HealthErr() != nil {
		t.Error("unmonitored pool must report nil health")
	}
}

func TestReadFillsEverything(t *testing.T) {
	g, _ := New(WithSeed(80))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		buf := make([]byte, n)
		got, err := g.Read(buf)
		if err != nil || got != n {
			t.Fatalf("Read(%d) = %d, %v", n, got, err)
		}
	}
	// Byte content equals the word stream, little-endian.
	g1, _ := New(WithSeed(81))
	g2, _ := New(WithSeed(81))
	buf := make([]byte, 16)
	if _, err := g1.Read(buf); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		want := g2.Uint64()
		for b := 0; b < 8; b++ {
			if buf[w*8+b] != byte(want>>(8*b)) {
				t.Fatalf("byte %d mismatch", w*8+b)
			}
		}
	}
	// Bytes are roughly balanced.
	g3, _ := New(WithSeed(82))
	big := make([]byte, 1<<16)
	if _, err := g3.Read(big); err != nil {
		t.Fatal(err)
	}
	var counts [256]int
	for _, b := range big {
		counts[b]++
	}
	for v, c := range counts {
		if c < 128 || c > 384 { // expectation 256
			t.Fatalf("byte value %d count %d", v, c)
		}
	}
}

// TestReadMatchesWordStream pins Read to the word stream for lengths
// on both sides of its 256-word encode block and of a bin, ragged
// tails included, through both branches: a word-aligned buffer filled
// in place and a misaligned one encoded through the stack block. Every
// Read must serve the next ⌈n/8⌉ words of Uint64's stream,
// little-endian, and leave the generator where those Uint64 calls do.
func TestReadMatchesWordStream(t *testing.T) {
	backing := make([]byte, 5000)     // heap blocks this size are 8-byte aligned
	for _, off := range []int{0, 1} { // aligned, misaligned
		for _, opts := range [][]Option{{WithSeed(83)}, {WithSeed(83), WithHealthMonitoring(4)}} {
			g, _ := New(opts...)
			ref, _ := New(opts...)
			for _, n := range []int{8, 3, 256 * 8, 256*8 + 5, 257 * 8, 32*8 - 1, 4096, 0, 1} {
				buf := backing[off : off+n]
				if _, err := g.Read(buf); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i += 8 {
					w := ref.Uint64()
					for b := i; b < min(i+8, n); b++ {
						if buf[b] != byte(w>>(8*(b-i))) {
							t.Fatalf("offset %d, Read(%d) byte %d: %#x, word stream %#x", off, n, b, buf[b], byte(w>>(8*(b-i))))
						}
					}
				}
				if g.Position() != ref.Position() || g.Generated() != ref.Generated() {
					t.Fatalf("offset %d, Read(%d): generator left at %v after %d numbers, word stream at %v after %d",
						off, n, g.Position(), g.Generated(), ref.Position(), ref.Generated())
				}
			}
		}
	}
}

func TestSkipMatchesDiscardedDraws(t *testing.T) {
	g1, _ := New(WithSeed(70))
	g2, _ := New(WithSeed(70))
	g1.Skip(37)
	for i := 0; i < 37; i++ {
		g2.Uint64()
	}
	if g1.Generated() != g2.Generated() {
		t.Errorf("Generated after skip = %d, want %d", g1.Generated(), g2.Generated())
	}
	for i := 0; i < 20; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatal("Skip diverged from discarded draws")
		}
	}
	g1.Skip(0) // no-op
	if g1.Generated() != g2.Generated() {
		t.Error("Skip(0) changed the count")
	}
}

func TestWalkLengthOptionChangesStream(t *testing.T) {
	g64, _ := New(WithSeed(50), WithWalkLength(64))
	g8, _ := New(WithSeed(50), WithWalkLength(8))
	if g64.Uint64() == g8.Uint64() {
		t.Error("walk length option had no effect")
	}
}

func TestPositionIsOnGraph(t *testing.T) {
	g, _ := New(WithSeed(60))
	v := g.Uint64()
	if g.Position().ID() != v {
		t.Error("position does not match the emitted value")
	}
}

func TestStreamsNeverCollideProperty(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		g1, err1 := New(WithSeed(s1))
		g2, err2 := New(WithSeed(s2))
		if err1 != nil || err2 != nil {
			return false
		}
		return g1.Uint64() != g2.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
