package baselines

// XORWOW is Marsaglia's xorwow generator (JSS 2003, "Xorshift RNGs"),
// the default generator of Nvidia's cuRAND device API — the "CURAND"
// rows of the paper's Figure 3 and Tables I–III. It is a 160-bit
// xorshift combined with a Weyl counter:
//
//	t = x ^ (x >> 2)
//	x, y, z, w = y, z, w, v
//	v = (v ^ (v << 4)) ^ (t ^ (t << 1))
//	d += 362437
//	return d + v
type XORWOW struct {
	x, y, z, w, v uint32
	d             uint32
}

// NewXORWOW returns a generator in Marsaglia's published initial
// state, sequence-split by the seed the way cuRAND perturbs its
// per-thread states (seed folded into the xorshift state with a
// splitmix-style scramble; seed 0 gives exactly the published
// state).
func NewXORWOW(seed uint64) *XORWOW {
	g := &XORWOW{
		x: 123456789,
		y: 362436069,
		z: 521288629,
		w: 88675123,
		v: 5783321,
		d: 6615241,
	}
	if seed != 0 {
		// Scramble the state with the seed; cuRAND's curand_init
		// similarly derives a distinct state per (seed, sequence).
		s := seed
		for i := 0; i < 5; i++ {
			s ^= s >> 33
			s *= 0xff51afd7ed558ccd
			s ^= s >> 33
			switch i {
			case 0:
				g.x ^= uint32(s)
			case 1:
				g.y ^= uint32(s)
			case 2:
				g.z ^= uint32(s)
			case 3:
				g.w ^= uint32(s)
			case 4:
				g.v ^= uint32(s)
			}
		}
		if g.x|g.y|g.z|g.w|g.v == 0 {
			g.x = 123456789 // the all-zero xorshift state is absorbing
		}
	}
	return g
}

// Uint32 returns the next 32-bit output.
func (g *XORWOW) Uint32() uint32 {
	t := g.x ^ (g.x >> 2)
	g.x, g.y, g.z, g.w = g.y, g.z, g.w, g.v
	g.v = (g.v ^ (g.v << 4)) ^ (t ^ (t << 1))
	g.d += 362437
	return g.d + g.v
}

// Uint64 concatenates two 32-bit outputs, high word first.
func (g *XORWOW) Uint64() uint64 {
	hi := uint64(g.Uint32())
	lo := uint64(g.Uint32())
	return hi<<32 | lo
}
