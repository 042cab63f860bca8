package baselines

// KISS99 is Marsaglia's KISS generator (1999 post): a combination of
// an LCG, a 3-shift xorshift and two MWCs. It is the historically
// standard "good simple generator" of the GPU-PRNG literature the
// paper draws on (Demchik 2011 benchmarks it on GPUs), included here
// as an additional comparison point.
type KISS99 struct {
	z, w, jsr, jcong uint32
}

// NewKISS99 returns the generator in Marsaglia's published initial
// state, perturbed by seed (seed 0 gives exactly the published
// state, whose first output is the test-vector value).
func NewKISS99(seed uint64) *KISS99 {
	g := &KISS99{z: 362436069, w: 521288629, jsr: 123456789, jcong: 380116160}
	if seed != 0 {
		s := Mix64(seed)
		g.z ^= uint32(s)
		g.w ^= uint32(s >> 32)
		s = Mix64(seed + 1)
		g.jsr ^= uint32(s)
		g.jcong ^= uint32(s >> 32)
		if g.jsr == 0 {
			g.jsr = 123456789 // xorshift must not be zero
		}
		if g.z == 0 {
			g.z = 362436069
		}
		if g.w == 0 {
			g.w = 521288629
		}
	}
	return g
}

// Uint32 returns the next output: MWC ^ CONG + SHR3.
func (g *KISS99) Uint32() uint32 {
	// Two 16-bit MWCs.
	g.z = 36969*(g.z&65535) + g.z>>16
	g.w = 18000*(g.w&65535) + g.w>>16
	mwc := g.z<<16 + g.w
	// CONG.
	g.jcong = 69069*g.jcong + 1234567
	// SHR3.
	g.jsr ^= g.jsr << 17
	g.jsr ^= g.jsr >> 13
	g.jsr ^= g.jsr << 5
	return (mwc ^ g.jcong) + g.jsr
}

// Uint64 concatenates two 32-bit outputs, high word first.
func (g *KISS99) Uint64() uint64 {
	hi := uint64(g.Uint32())
	lo := uint64(g.Uint32())
	return hi<<32 | lo
}

// XorShift64Star is Marsaglia's xorshift64 with Vigna's
// multiplicative scramble — the minimal modern 64-bit generator,
// included as the lightweight comparison point between the raw LCG
// and SplitMix64.
type XorShift64Star struct {
	state uint64
}

// NewXorShift64Star returns a generator with the given nonzero seed
// (zero is remapped — the all-zero xorshift state is absorbing).
func NewXorShift64Star(seed uint64) *XorShift64Star {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &XorShift64Star{state: seed}
}

// Uint64 returns the next output.
func (g *XorShift64Star) Uint64() uint64 {
	x := g.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.state = x
	return x * 0x2545F4914F6CDD1D
}
