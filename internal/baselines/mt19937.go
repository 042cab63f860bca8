package baselines

// MT19937 is the classic 32-bit Mersenne Twister of Matsumoto and
// Nishimura (1998), bit-exact against the reference implementation:
// seeding with 5489 yields 3499211612, 581869302, 3890346734, ...
//
// The paper compares against the Nvidia SDK "MersenneTwister" sample,
// which is a dcmt-parameterised family of this generator; the
// canonical parameter set is used here, and the batch-only behaviour
// of the SDK sample is modelled by the hybrid harness, not by this
// type.
type MT19937 struct {
	mt  [624]uint32
	idx int
}

const (
	mtN         = 624
	mtM         = 397
	mtMatrixA   = 0x9908b0df
	mtUpperMask = 0x80000000
	mtLowerMask = 0x7fffffff
)

// NewMT19937 returns a Mersenne Twister seeded with init_genrand(seed).
func NewMT19937(seed uint32) *MT19937 {
	g := &MT19937{}
	g.seed32(seed)
	return g
}

func (g *MT19937) seed32(seed uint32) {
	g.mt[0] = seed
	for i := 1; i < mtN; i++ {
		g.mt[i] = 1812433253*(g.mt[i-1]^(g.mt[i-1]>>30)) + uint32(i)
	}
	g.idx = mtN
}

func (g *MT19937) generate() {
	for i := 0; i < mtN; i++ {
		y := g.mt[i]&mtUpperMask | g.mt[(i+1)%mtN]&mtLowerMask
		next := g.mt[(i+mtM)%mtN] ^ (y >> 1)
		if y&1 != 0 {
			next ^= mtMatrixA
		}
		g.mt[i] = next
	}
	g.idx = 0
}

// Uint32 returns the next tempered 32-bit output.
func (g *MT19937) Uint32() uint32 {
	if g.idx >= mtN {
		g.generate()
	}
	y := g.mt[g.idx]
	g.idx++
	y ^= y >> 11
	y ^= (y << 7) & 0x9d2c5680
	y ^= (y << 15) & 0xefc60000
	y ^= y >> 18
	return y
}

// Uint64 concatenates two 32-bit outputs, high word first.
func (g *MT19937) Uint64() uint64 {
	hi := uint64(g.Uint32())
	lo := uint64(g.Uint32())
	return hi<<32 | lo
}

// Seed implements rng.Seeder.
func (g *MT19937) Seed(seed uint64) { g.seed32(uint32(seed)) }

// Name implements rng.Named.
func (g *MT19937) Name() string { return "mt19937" }

// MT19937_64 is the 64-bit Mersenne Twister (Nishimura 2000),
// bit-exact against the reference: seeding with 5489 yields
// 14514284786278117030, 4620546740167642908, ...
type MT19937_64 struct {
	mt  [312]uint64
	idx int
}

const (
	mt64N         = 312
	mt64M         = 156
	mt64MatrixA   = 0xB5026F5AA96619E9
	mt64UpperMask = 0xFFFFFFFF80000000
	mt64LowerMask = 0x7FFFFFFF
)

// NewMT19937_64 returns a 64-bit Mersenne Twister seeded with
// init_genrand64(seed).
func NewMT19937_64(seed uint64) *MT19937_64 {
	g := &MT19937_64{}
	g.Seed(seed)
	return g
}

// Seed implements rng.Seeder (init_genrand64).
func (g *MT19937_64) Seed(seed uint64) {
	g.mt[0] = seed
	for i := 1; i < mt64N; i++ {
		g.mt[i] = 6364136223846793005*(g.mt[i-1]^(g.mt[i-1]>>62)) + uint64(i)
	}
	g.idx = mt64N
}

func (g *MT19937_64) generate() {
	for i := 0; i < mt64N; i++ {
		x := g.mt[i]&mt64UpperMask | g.mt[(i+1)%mt64N]&mt64LowerMask
		next := g.mt[(i+mt64M)%mt64N] ^ (x >> 1)
		if x&1 != 0 {
			next ^= mt64MatrixA
		}
		g.mt[i] = next
	}
	g.idx = 0
}

// Uint64 returns the next tempered 64-bit output.
func (g *MT19937_64) Uint64() uint64 {
	if g.idx >= mt64N {
		g.generate()
	}
	x := g.mt[g.idx]
	g.idx++
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

// Name implements rng.Named.
func (g *MT19937_64) Name() string { return "mt19937-64" }
