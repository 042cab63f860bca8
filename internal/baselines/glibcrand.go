package baselines

// GlibcRand re-implements glibc's random() in its default TYPE_3
// configuration: an additive lagged-Fibonacci generator of degree 31
// with separation 3, seeded by a MINSTD LCG pass, discarding the
// first 310 outputs exactly as glibc's initstate() does.
//
// In flattened form the stream is
//
//	r[0]      = seed
//	r[1..30]  = 16807·r[i-1] mod 2^31-1
//	r[31..33] = r[i-31]
//	r[i]      = r[i-31] + r[i-3]   (mod 2^32)   for i ≥ 34
//	output_n  = r[n+344] >> 1
//
// The output stream is bit-identical to glibc: srandom(1) yields
// 1804289383, 846930886, 1681692777, ...  This matters because the
// paper's Table II "glibc rand()" row and its FEED work unit both use
// this exact generator.
type GlibcRand struct {
	buf [34]uint32 // last 34 values of the flattened recurrence
	k   int        // index (mod 34) of the next value to write
}

// NewGlibcRand returns a generator in the state srandom(seed) leaves
// glibc's default generator in.
func NewGlibcRand(seed uint32) *GlibcRand {
	g := &GlibcRand{}
	g.srandom(seed)
	return g
}

func (g *GlibcRand) srandom(seed uint32) {
	if seed == 0 {
		seed = 1 // glibc maps seed 0 to 1
	}
	g.buf[0] = seed
	for i := 1; i < 31; i++ {
		// 16807 · r[i-1] mod 2^31-1, kept non-negative; 64-bit
		// arithmetic replaces glibc's Schrage trick.
		v := int64(int32(g.buf[i-1])) * 16807 % 2147483647
		if v < 0 {
			v += 2147483647
		}
		g.buf[i] = uint32(v)
	}
	for i := 31; i < 34; i++ {
		g.buf[i] = g.buf[i-31]
	}
	g.k = 34 % 34 // next value to write is r[34], stored at slot 0
	// glibc discards the first 310 outputs (r[34..343]); the first
	// value handed to the caller is r[344] >> 1.
	for i := 0; i < 310; i++ {
		g.step()
	}
}

// step generates the next value r[i] = r[i-31] + r[i-3] of the
// recurrence and returns it (before the output shift). Only srandom's
// discard loop and Random call it; the FEED's entry points, Uint64 and
// FillWords, step the ring in their own bodies. k is always < 34, so
// each cursor reduction is one conditional subtract.
func (g *GlibcRand) step() uint32 {
	// Slot layout: g.buf holds r[i-34..i-1]; with write cursor k
	// (= i mod 34), r[i-31] sits at (k+3) mod 34 and r[i-3] at
	// (k+31) mod 34.
	k := g.k
	i3 := k + 3
	if i3 >= 34 {
		i3 -= 34
	}
	i31 := k + 31
	if i31 >= 34 {
		i31 -= 34
	}
	v := g.buf[i3] + g.buf[i31]
	g.buf[k] = v
	k++
	if k == 34 {
		k = 0
	}
	g.k = k
	return v
}

// Random returns the next output of random(): a 31-bit non-negative
// value.
func (g *GlibcRand) Random() int32 {
	return int32(g.step() >> 1)
}

// Uint64 assembles a 64-bit word from three 31-bit outputs (93 bits
// drawn, the surplus discarded), preserving the generator's native
// statistical signature.
//
// The three recurrence steps are unrolled with the cursor kept in a
// local, so the per-call cost is three adds and one cursor store —
// this is the FEED's bulk entry point and shows up directly in pool
// refill throughput.
func (g *GlibcRand) Uint64() uint64 {
	k := g.k
	i3, i31 := k+3, k+31
	if i3 >= 34 {
		i3 -= 34
	}
	if i31 >= 34 {
		i31 -= 34
	}
	a := g.buf[i3] + g.buf[i31]
	g.buf[k] = a
	if i3++; i3 == 34 {
		i3 = 0
	}
	if i31++; i31 == 34 {
		i31 = 0
	}
	if k++; k == 34 {
		k = 0
	}
	b := g.buf[i3] + g.buf[i31]
	g.buf[k] = b
	if i3++; i3 == 34 {
		i3 = 0
	}
	if i31++; i31 == 34 {
		i31 = 0
	}
	if k++; k == 34 {
		k = 0
	}
	c := g.buf[i3] + g.buf[i31]
	g.buf[k] = c
	if k++; k == 34 {
		k = 0
	}
	g.k = k
	return uint64(a>>1)<<33 | uint64(b>>1)<<2 | uint64(c>>1)&3
}

// feedVecMin is the shortest draw FillWords hands to the AVX2 block
// kernel; shorter draws, and the last len(dst) mod 8 words of longer
// ones, take the Go loop. The kernel pays a fixed cost to move the ring
// into field-major order and back. Per draw, the Go loop against the
// kernel took 30-36 against 65-76 ns at 8 words, 57-62 against 63-81 at
// 16, 72-117 against 71-120 at 20 and 79-140 against 68-76 at 24 (3
// runs each at -cpu 1, 2-vCPU Xeon @ 2.0 GHz). A full bin is 384 words.
const feedVecMin = 20

// FillWords writes the next len(dst) words of the stream: exactly the
// words len(dst) Uint64 calls return, leaving the same state
// (rng.BlockSource). It is the FEED's block draw. On AVX2 hosts a draw
// of feedVecMin words or more computes eight words at a time in the
// block kernel (fillBlocks). The rest go through the Go loop: the two
// cursors stay in locals, and so do the last three values r[i-3..i-1],
// so each step loads only r[i-31], written 31 steps earlier, instead of
// reading back the value it stored three steps ago as Uint64 does.
// Uint64 keeps its own unrolled body: routed through here, one word per
// call measured slower.
func (g *GlibcRand) FillWords(dst []uint64) {
	if n := len(dst) &^ 7; haveAVX2 && len(dst) >= feedVecMin {
		g.fillBlocks(dst[:n])
		dst = dst[n:]
	}
	// Slot layout: g.buf holds r[i-34..i-1]; with write cursor k
	// (= i mod 34), r[i-31] sits at (k+3) mod 34 and r[i-3..i-1] in
	// the three slots behind k.
	buf := &g.buf
	k := g.k
	j := k + 3
	if j >= 34 {
		j -= 34
	}
	back := func(d int) uint32 { // r[i-d], d ≤ 3
		if k < d {
			return buf[k-d+34]
		}
		return buf[k-d]
	}
	p3, p2, p1 := back(3), back(2), back(1)
	for i := range dst {
		a := buf[j] + p3
		buf[k] = a
		if j++; j == 34 {
			j = 0
		}
		if k++; k == 34 {
			k = 0
		}
		b := buf[j] + p2
		buf[k] = b
		if j++; j == 34 {
			j = 0
		}
		if k++; k == 34 {
			k = 0
		}
		c := buf[j] + p1
		buf[k] = c
		if j++; j == 34 {
			j = 0
		}
		if k++; k == 34 {
			k = 0
		}
		p3, p2, p1 = a, b, c
		dst[i] = uint64(a>>1)<<33 | uint64(b>>1)<<2 | uint64(c>>1)&3
	}
	g.k = k
}

// GlibcRand32 is glibc random() used the way applications naively
// use it: each 32-bit lane is one random() return value, whose top
// bit is always zero (random() yields 31 bits). This is the honest
// "glibc rand()" row of a 32-bit battery — the stuck bit makes it
// fail binary-rank, monkey and bit-count tests en masse, matching
// the paper's Table II row for glibc rand().
type GlibcRand32 struct {
	GlibcRand
}

// NewGlibcRand32 returns the naive-usage wrapper.
func NewGlibcRand32(seed uint32) *GlibcRand32 {
	g := &GlibcRand32{}
	g.srandom(seed)
	return g
}

// Uint64 packs two raw random() outputs as two 32-bit lanes, stuck
// top bits included.
func (g *GlibcRand32) Uint64() uint64 {
	hi := uint64(uint32(g.Random()))
	lo := uint64(uint32(g.Random()))
	return hi<<32 | lo
}

// FillWords writes the next len(dst) naive-usage words. It shadows the
// embedded GlibcRand's block draw, which would hand out the packed
// 64-bit feed words instead.
func (g *GlibcRand32) FillWords(dst []uint64) {
	for i := range dst {
		dst[i] = g.Uint64()
	}
}
