// Package baselines implements the comparison generators the paper
// measures the hybrid PRNG against: the glibc random() additive
// generator and the ANSI C LCG, MT19937 and MT19937-64 (Mersenne
// Twister), XORWOW (the cuRAND device-API default), MWC (the
// multiply-with-carry generator used by CUDAMCML) and a counter-mode
// MD5 generator (the CUDPP-style construction).
//
// All generators implement rng.Source and are registered by name in
// the Registry for the cmd/ tools.
package baselines

// LCG is a general 64-bit linear congruential generator
// x' = a·x + c (mod 2^64), emitting the full state. Its quality is
// deliberately poor: it exists as the "naive" bit source the hybrid
// PRNG amplifies and as a battery punching bag.
type LCG struct {
	a, c  uint64
	state uint64
}

// NewLCG returns an LCG with multiplier a, increment c and the given
// seed.
func NewLCG(a, c, seed uint64) *LCG {
	return &LCG{a: a, c: c, state: seed}
}

// NewKnuthLCG returns Knuth's MMIX LCG, the strongest of the plain
// power-of-two-modulus LCGs.
func NewKnuthLCG(seed uint64) *LCG {
	return NewLCG(6364136223846793005, 1442695040888963407, seed)
}

// Uint64 advances the state and returns it.
func (g *LCG) Uint64() uint64 {
	g.state = g.state*g.a + g.c
	return g.state
}

// ANSIC is the reference implementation of the C standard's example
// rand(): 31-bit state, returning 15-bit values, exactly as printed
// in K&R and the C89 rationale. It exists to reproduce the "glibc
// rand()" row of Table I/II at its historical quality level and for
// its published test vector.
type ANSIC struct {
	next uint64
}

// NewANSIC returns the ANSI C example rand() seeded with seed
// (srand(seed)).
func NewANSIC(seed uint32) *ANSIC {
	return &ANSIC{next: uint64(seed)}
}

// Rand returns the next 15-bit value in [0, 32768), matching the
// C standard's example implementation.
func (g *ANSIC) Rand() uint32 {
	g.next = g.next*1103515245 + 12345
	return uint32(g.next/65536) % 32768
}

// Uint64 assembles a 64-bit word from five successive 15-bit
// outputs (75 bits drawn, the low 11 bits of the last draw
// discarded), so the word inherits the generator's statistical
// weaknesses faithfully.
func (g *ANSIC) Uint64() uint64 {
	a := uint64(g.Rand())
	b := uint64(g.Rand())
	c := uint64(g.Rand())
	d := uint64(g.Rand())
	e := uint64(g.Rand())
	return a<<49 | b<<34 | c<<19 | d<<4 | e>>11
}

// MINSTD is the Lehmer generator x' = 16807·x mod (2^31 - 1), the
// "minimal standard" of Park and Miller. glibc uses it to seed the
// additive TYPE_3 tables, and the paper's initialisation does the
// same, so it is exposed here.
type MINSTD struct {
	state int64
}

// NewMINSTD returns a MINSTD generator. A zero seed is mapped to 1
// because 0 is a fixed point.
func NewMINSTD(seed int32) *MINSTD {
	s := int64(seed) % 2147483647
	if s <= 0 {
		s += 2147483646
	}
	if s == 0 {
		s = 1
	}
	return &MINSTD{state: s}
}

// Next31 returns the next value in [1, 2^31 - 1).
func (g *MINSTD) Next31() int32 {
	g.state = (16807 * g.state) % 2147483647
	return int32(g.state)
}

// Uint64 assembles a 64-bit word from three 31-bit draws.
func (g *MINSTD) Uint64() uint64 {
	a := uint64(g.Next31())
	b := uint64(g.Next31())
	c := uint64(g.Next31())
	return a<<33 | b<<2 | c&3
}
