//go:build amd64 && !purego

package baselines

import "repro/internal/cpuid"

// feedBlocks writes the next len(dst) words of the stream, a multiple
// of eight and at least eight — the AVX2 block kernel (glibc_amd64.s).
// For the next value r[i], r points at r[i-48] in a window of 48
// values in order, of which the kernel uses those from r[i-31] on. It
// gathers them into field-major order and leaves the last two blocks of
// each field in f in that order: f[16t+j] = r[i'-48+3j+t], for r[i']
// the value after the draw and t the field (0, 1 or 2) of a word.
//
//go:noescape
func feedBlocks(r *uint32, f *[48]uint32, dst []uint64)

// haveAVX2 gates the block kernel.
var haveAVX2 = cpuid.AVX2

// fillBlocks draws len(dst) words, a multiple of eight, through
// feedBlocks. The kernel's window is the ring unrolled twice behind 14
// words of padding: r[i-48+q] is w[k+q] for every q from 14 to 47. The
// state stays the 34-value ring: on exit the last 34 values go back
// into it, at the new cursor.
func (g *GlibcRand) fillBlocks(dst []uint64) {
	var w [14 + 2*34]uint32
	copy(w[14:], g.buf[:])
	copy(w[14+34:], g.buf[:])
	var f [48]uint32
	feedBlocks(&w[g.k], &f, dst)
	// The last 34 values in order: r[i'-34] is field 2's lane 4, and
	// r[i'-33+3(j-5)+t] field t's lane j from 5 on.
	var last [34]uint32
	last[0] = f[32+4]
	for j := 5; j < 16; j++ {
		e := 3*j - 14
		last[e], last[e+1], last[e+2] = f[j], f[16+j], f[32+j]
	}
	k := (g.k + 3*len(dst)) % 34
	copy(g.buf[k:], last[:34-k])
	copy(g.buf[:k], last[34-k:])
	g.k = k
}
