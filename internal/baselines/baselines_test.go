package baselines

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// --- published test vectors ---------------------------------------

func TestGlibcRandReferenceVector(t *testing.T) {
	// glibc: srandom(1); random() × 10.
	want := []int32{
		1804289383, 846930886, 1681692777, 1714636915, 1957747793,
		424238335, 719885386, 1649760492, 596516649, 1189641421,
	}
	g := NewGlibcRand(1)
	for i, w := range want {
		if got := g.Random(); got != w {
			t.Fatalf("glibc random() #%d = %d, want %d", i, got, w)
		}
	}
}

func TestGlibcRandSeedZeroEqualsOne(t *testing.T) {
	a, b := NewGlibcRand(0), NewGlibcRand(1)
	for i := 0; i < 100; i++ {
		if a.Random() != b.Random() {
			t.Fatal("glibc seed 0 must behave as seed 1")
		}
	}
}

func TestANSICReferenceVector(t *testing.T) {
	// The C89 rationale's example rand() with srand(1).
	want := []uint32{16838, 5758, 10113, 17515, 31051, 5627, 23010, 7419, 16212, 4086}
	g := NewANSIC(1)
	for i, w := range want {
		if got := g.Rand(); got != w {
			t.Fatalf("ansic rand() #%d = %d, want %d", i, got, w)
		}
	}
}

func TestMINSTDReferenceValues(t *testing.T) {
	// Park–Miller: starting from 1, the 10000th value is 1043618065.
	g := NewMINSTD(1)
	var v int32
	for i := 0; i < 10000; i++ {
		v = g.Next31()
	}
	if v != 1043618065 {
		t.Fatalf("MINSTD 10000th value = %d, want 1043618065", v)
	}
}

func TestMT19937ReferenceVector(t *testing.T) {
	// Reference mt19937ar.c with init_genrand(5489).
	want := []uint32{
		3499211612, 581869302, 3890346734, 3586334585, 545404204,
		4161255391, 3922919429, 949333985, 2715962298, 1323567403,
	}
	g := NewMT19937(5489)
	for i, w := range want {
		if got := g.Uint32(); got != w {
			t.Fatalf("mt19937 #%d = %d, want %d", i, got, w)
		}
	}
}

func TestMT19937_64ReferenceVector(t *testing.T) {
	// Reference mt19937-64.c with init_genrand64(5489).
	want := []uint64{
		14514284786278117030, 4620546740167642908, 13109570281517897720,
		17462938647148434322, 355488278567739596,
	}
	g := NewMT19937_64(5489)
	for i, w := range want {
		if got := g.Uint64(); got != w {
			t.Fatalf("mt19937-64 #%d = %d, want %d", i, got, w)
		}
	}
}

// xorwowStepReference is an independent re-statement of Marsaglia's
// xorwow, written array-style to cross-check the struct
// implementation (differential test; no published vector is embedded
// in the xorwow paper).
func xorwowStepReference(s *[5]uint32, d *uint32) uint32 {
	t := s[0] ^ (s[0] >> 2)
	s[0], s[1], s[2], s[3] = s[1], s[2], s[3], s[4]
	s[4] = (s[4] ^ (s[4] << 4)) ^ (t ^ (t << 1))
	*d += 362437
	return *d + s[4]
}

func TestXORWOWMatchesIndependentReference(t *testing.T) {
	g := NewXORWOW(0)
	state := [5]uint32{123456789, 362436069, 521288629, 88675123, 5783321}
	d := uint32(6615241)
	for i := 0; i < 10000; i++ {
		want := xorwowStepReference(&state, &d)
		if got := g.Uint32(); got != want {
			t.Fatalf("xorwow #%d = %d, want %d", i, got, want)
		}
	}
}

func TestXORWOWSeedsDiverge(t *testing.T) {
	a, b := NewXORWOW(1), NewXORWOW(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("xorwow streams for different seeds agree on %d/100 outputs", same)
	}
}

func TestMWCNeverZeroState(t *testing.T) {
	g := NewMWC(DefaultMWCMultipliers[0], 0)
	if g.state == 0 {
		t.Fatal("zero state must be remapped")
	}
	for i := 0; i < 1000; i++ {
		g.Uint32()
		if g.state == 0 {
			t.Fatal("MWC reached the absorbing zero state")
		}
	}
}

func TestMWCPerThreadStreamsDiffer(t *testing.T) {
	a := NewMWCForThread(0, 12345)
	b := NewMWCForThread(1, 12345)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("MWC thread streams agree on %d/100 outputs", same)
	}
}

func TestMD5RandDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewMD5Rand(7), NewMD5Rand(7)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("md5 generator must be deterministic")
		}
	}
	if NewMD5Rand(7).Uint64() == NewMD5Rand(8).Uint64() {
		t.Fatal("different seeds should give different first words")
	}
}

// --- registry and interface conformance ---------------------------

func TestRegistryConstructsEverything(t *testing.T) {
	for _, name := range Names() {
		g, err := New(name, 42)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if g == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
		g.Uint64() // must not panic
	}
	if _, err := New("no-such-generator", 0); err == nil {
		t.Error("unknown generator name should fail")
	}
}

func TestSeedReproducibility(t *testing.T) {
	for _, name := range Names() {
		g1, _ := New(name, 99)
		g2, _ := New(name, 99)
		for i := 0; i < 32; i++ {
			a, b := g1.Uint64(), g2.Uint64()
			if a != b {
				t.Fatalf("%s: same seed diverged at word %d: %d vs %d", name, i, a, b)
			}
		}
	}
}

func TestSplitMix64KnownValue(t *testing.T) {
	// Widely circulated vector: seed 0 → first output
	// 0xE220A8397B1DCDAF.
	g := NewSplitMix64(0)
	if got := g.Uint64(); got != 0xE220A8397B1DCDAF {
		t.Fatalf("splitmix64(0) first output = %#x, want 0xE220A8397B1DCDAF", got)
	}
}

func TestMix64MatchesSplitMix(t *testing.T) {
	if Mix64(0) != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix64(0) = %#x, want 0xE220A8397B1DCDAF", Mix64(0))
	}
}

// --- gross statistical sanity (cheap, not a battery) --------------

func TestAllGeneratorsRoughlyUniform(t *testing.T) {
	for _, name := range Names() {
		g, _ := New(name, 2024)
		var ones int
		const n = 4096
		for i := 0; i < n; i++ {
			v := g.Uint64()
			for ; v != 0; v &= v - 1 {
				ones++
			}
		}
		mean := float64(ones) / float64(n*64)
		// Even ansic (only 15 meaningful bits per sub-draw) should be
		// near 0.5 on the bits it does produce; the assembled word
		// keeps all draws, so 0.45–0.55 is a generous envelope.
		if mean < 0.45 || mean > 0.55 {
			t.Errorf("%s: bit density %.4f far from 0.5", name, mean)
		}
	}
}

func TestBitReaderRoundTrip(t *testing.T) {
	// Reading 64 bits in chunks must reproduce the word stream.
	f := func(seed uint64, chunksRaw []uint8) bool {
		src1 := NewSplitMix64(seed)
		src2 := NewSplitMix64(seed)
		br := rng.NewBitReader(src1)
		var chunks []uint
		total := uint(0)
		for _, c := range chunksRaw {
			n := uint(c)%32 + 1
			if total+n > 64 {
				break
			}
			chunks = append(chunks, n)
			total += n
		}
		if total < 64 {
			chunks = append(chunks, 64-total)
		}
		var assembled uint64
		for _, n := range chunks {
			assembled = assembled<<n | br.Bits(n)
		}
		return assembled == src2.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitReaderPanicsOnBadWidth(t *testing.T) {
	br := rng.NewBitReader(NewSplitMix64(1))
	for _, n := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bits(%d) should panic", n)
				}
			}()
			br.Bits(n)
		}()
	}
}

func TestUint64nBounds(t *testing.T) {
	g := NewSplitMix64(5)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := rng.Uint64n(g, n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Uint64n(0) should panic")
			}
		}()
		rng.Uint64n(g, 0)
	}()
}

func TestFloat64Range(t *testing.T) {
	g := NewMT19937_64(1)
	for i := 0; i < 10000; i++ {
		v := rng.Float64(g)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}
