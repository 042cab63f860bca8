package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// seq is a deterministic test source emitting a fixed slice, then
// panicking (tests must consume exactly what they expect).
type seq struct {
	vals []uint64
	i    int
}

func (s *seq) Uint64() uint64 {
	if s.i >= len(s.vals) {
		panic("seq exhausted")
	}
	v := s.vals[s.i]
	s.i++
	return v
}

// counter is an endless incrementing source.
type counter uint64

func (c *counter) Uint64() uint64 { *c++; return uint64(*c) }

func TestFloat64UsesTopBits(t *testing.T) {
	// All-ones word → (2^53−1)/2^53, just below 1.
	s := &seq{vals: []uint64{^uint64(0)}}
	v := Float64(s)
	if v >= 1 || v < 0.9999999999 {
		t.Errorf("Float64(max) = %g", v)
	}
	// Zero word → 0.
	s = &seq{vals: []uint64{0}}
	if v := Float64(s); v != 0 {
		t.Errorf("Float64(0) = %g", v)
	}
	// Only the low 11 bits set → still 0 (top 53 bits used).
	s = &seq{vals: []uint64{0x7FF}}
	if v := Float64(s); v != 0 {
		t.Errorf("Float64(low bits) = %g", v)
	}
}

func TestUint64nPowerOfTwoUsesMask(t *testing.T) {
	s := &seq{vals: []uint64{0xFFFF}}
	if v := Uint64n(s, 16); v != 0xF {
		t.Errorf("Uint64n pow2 = %d", v)
	}
}

func TestUint64nRejectionIsUnbiased(t *testing.T) {
	// n = 3: max = 2^64 − (2^64 mod 3). A value just below 2^64
	// must be rejected and the next value used.
	max := ^uint64(0) - (^uint64(0) % 3)
	s := &seq{vals: []uint64{max, 7}} // first rejected, then 7 % 3 = 1
	if v := Uint64n(s, 3); v != 1 {
		t.Errorf("Uint64n rejection = %d, want 1", v)
	}
	if s.i != 2 {
		t.Errorf("consumed %d words, want 2", s.i)
	}
}

func TestUint64nDistribution(t *testing.T) {
	var c counter
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[Uint64n(&c, 7)]++
	}
	for d, n := range counts {
		if n < 9000 || n > 11000 {
			t.Errorf("residue %d count %d", d, n)
		}
	}
}

// scrambled is a counter pushed through the SplitMix64 output
// function — a minimal in-package PRNG (a raw counter would park the
// polar method's rejection loop near (−1, −1) for ~2^42 draws).
type scrambled uint64

func (s *scrambled) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func TestNormFloat64Finite(t *testing.T) {
	var s scrambled
	for i := 0; i < 1000; i++ {
		v := NormFloat64(&s)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NormFloat64 = %g", v)
		}
	}
}

func TestBitReaderMSBFirst(t *testing.T) {
	s := &seq{vals: []uint64{0x8000000000000001}}
	br := NewBitReader(s)
	if b := br.Bit(); b != 1 {
		t.Errorf("first bit = %d, want the MSB (1)", b)
	}
	if v := br.Bits(62); v != 0 {
		t.Errorf("middle bits = %d", v)
	}
	if b := br.Bit(); b != 1 {
		t.Errorf("last bit = %d, want the LSB (1)", b)
	}
}

func TestBitReaderFullWord(t *testing.T) {
	s := &seq{vals: []uint64{0x0123456789ABCDEF}}
	br := NewBitReader(s)
	if v := br.Bits(64); v != 0x0123456789ABCDEF {
		t.Errorf("Bits(64) = %#x", v)
	}
}

func TestBitReaderSpansWords(t *testing.T) {
	s := &seq{vals: []uint64{0x0000000000000001, 0x8000000000000000}}
	br := NewBitReader(s)
	br.Bits(63)
	// Next 2 bits: LSB of word 1 (1) then MSB of word 2 (1) → 0b11.
	if v := br.Bits(2); v != 3 {
		t.Errorf("spanning bits = %#b, want 0b11", v)
	}
}

func TestLanes32Order(t *testing.T) {
	s := &seq{vals: []uint64{0xAAAAAAAA_BBBBBBBB, 0xCCCCCCCC_DDDDDDDD}}
	lane := Lanes32(s)
	want := []uint32{0xAAAAAAAA, 0xBBBBBBBB, 0xCCCCCCCC, 0xDDDDDDDD}
	for i, w := range want {
		if got := lane(); got != w {
			t.Fatalf("lane %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestCountingSource(t *testing.T) {
	var c counter
	cs := &CountingSource{Src: &c}
	for i := 0; i < 5; i++ {
		cs.Uint64()
	}
	if cs.Count != 5 {
		t.Errorf("Count = %d", cs.Count)
	}
}

func TestFuncAdapter(t *testing.T) {
	calls := 0
	f := Func(func() uint64 { calls++; return 42 })
	if f.Uint64() != 42 || calls != 1 {
		t.Error("Func adapter broken")
	}
}

func TestBitReaderReassemblyProperty(t *testing.T) {
	// Any split of 128 bits into chunks reassembles the two words.
	f := func(w1, w2 uint64, cuts []uint8) bool {
		src := &seq{vals: []uint64{w1, w2}}
		br := NewBitReader(src)
		var widths []uint
		total := uint(0)
		for _, c := range cuts {
			n := uint(c)%64 + 1
			if total+n > 128 {
				break
			}
			widths = append(widths, n)
			total += n
		}
		if total < 128 {
			widths = append(widths, 128-total)
			if widths[len(widths)-1] > 64 {
				// split the remainder
				last := widths[len(widths)-1]
				widths[len(widths)-1] = 64
				widths = append(widths, last-64)
			}
		}
		var hi, lo uint64
		bitsSeen := uint(0)
		for _, n := range widths {
			v := br.Bits(n)
			for b := int(n) - 1; b >= 0; b-- {
				bit := v >> uint(b) & 1
				if bitsSeen < 64 {
					hi = hi<<1 | bit
				} else {
					lo = lo<<1 | bit
				}
				bitsSeen++
			}
		}
		return hi == w1 && lo == w2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitReaderStateAccessors(t *testing.T) {
	s := &seq{vals: []uint64{0xF0F0F0F0F0F0F0F0, 0x1234}}
	br := NewBitReader(s)
	br.Bits(10)
	word, left := br.State()
	if left != 54 {
		t.Errorf("left = %d, want 54", left)
	}
	if word != 0xF0F0F0F0F0F0F0F0 {
		t.Errorf("buffered word = %#x", word)
	}
	if br.Source() == nil {
		t.Error("Source accessor broken")
	}
	// Restore into a fresh reader over the same (advanced) source.
	br2 := NewBitReader(s)
	br2.SetState(word, left)
	a := br.Bits(54)
	b := br2.Bits(54)
	if a != b {
		t.Errorf("restored reader diverged: %#x vs %#x", a, b)
	}
}

func TestBitReaderSetStatePanicsOnBadLeft(t *testing.T) {
	br := NewBitReader(&seq{vals: []uint64{1}})
	defer func() {
		if recover() == nil {
			t.Error("SetState(_, 65) should panic")
		}
	}()
	br.SetState(0, 65)
}
