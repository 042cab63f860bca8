// Package rng defines the generator interfaces shared by the hybrid
// PRNG, the baseline generators and the statistical test batteries,
// plus small adapters for extracting floats, bounded integers and
// bit fields from a raw 64-bit stream.
package rng

import "math"

// Source is the minimal interface every generator in this repository
// implements: a stream of independent, uniformly distributed 64-bit
// words.
type Source interface {
	// Uint64 returns the next 64-bit word of the stream.
	Uint64() uint64
}

// BlockSource is implemented by sources that can draw a whole block
// of words in one call, the way the paper's CPU fills a bin of feed
// bits for the walks to consume. FillWords must write exactly the
// words len(dst) Uint64 calls would return and leave the source in
// the same state.
type BlockSource interface {
	Source
	FillWords(dst []uint64)
}

// FillWords writes the next len(dst) words of src into dst: one block
// draw when src is a BlockSource, otherwise one Uint64 call per word,
// so wrappers that count, inject faults or merely adapt a function
// see every word go by.
func FillWords(src Source, dst []uint64) {
	if b, ok := src.(BlockSource); ok {
		b.FillWords(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Uint64()
	}
}

// Float64 converts the next word of src into a float64 uniform on
// [0, 1) using the top 53 bits.
func Float64(src Source) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Uint64n returns a uniform integer in [0, n) by Lemire-style
// rejection (multiply-shift with a bias-elimination retry loop).
// n must be positive.
func Uint64n(src Source, n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two
		return src.Uint64() & (n - 1)
	}
	// Classical rejection on the top range to avoid modulo bias.
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := src.Uint64()
		if v < max {
			return v % n
		}
	}
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method. Used by example applications.
func NormFloat64(src Source) float64 {
	for {
		u := 2*Float64(src) - 1
		v := 2*Float64(src) - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// BitReader extracts consecutive bit fields from a Source, most
// significant bits of each word first. It is the software analogue of
// the paper's "bin" stream: the CPU FEED produces raw words and the
// walker peels 3 bits per step. Bits reads one field at a time; Bin
// hands over a whole run of fields — the bits a walker's next numbers
// consume — drawn in one block, which is how the bulk walk paths read
// their feed.
type BitReader struct {
	src  Source
	word uint64
	left uint // bits remaining in word
}

// NewBitReader returns a BitReader over src.
func NewBitReader(src Source) *BitReader {
	return &BitReader{src: src}
}

// Bits returns the next n bits (0 < n ≤ 64) as the low bits of the
// result.
//
// Because n ≤ 64, a read spans at most two source words, so the body
// is two straight-line takes rather than a loop: the buffered take
// when the field fits, else the remainder of the buffer concatenated
// with the top of a freshly drawn word. The walker's hot loop issues
// four of these per emitted number, which is why the shape matters.
func (b *BitReader) Bits(n uint) uint64 {
	if n == 0 || n > 64 {
		panic("rng: BitReader.Bits n out of range")
	}
	if n <= b.left {
		// Whole field sits in the buffered word: take its top n
		// unread bits. (1<<n wraps to 0 at n == 64, making the mask
		// all-ones, which is what a 64-bit take needs.)
		shift := b.left - n
		b.left = shift
		return (b.word >> shift) & (1<<n - 1)
	}
	// Field straddles a refill: drain the buffer (possibly zero
	// bits), then take the top of the next word.
	out := b.word & (1<<b.left - 1)
	need := n - b.left
	w := b.src.Uint64()
	b.word = w
	b.left = 64 - need
	return out<<need | w>>(64-need)
}

// Bin writes the next n bits of the stream into dst left-aligned —
// bit 0 of the run is the top bit of dst[0] — with the bits past n in
// the last word cleared; dst must hold at least ⌈n/64⌉ words. The
// words it needs are drawn in one FillWords call, and the reader is
// left exactly where Bits calls totalling n bits would leave it: the
// same buffered word, the same unread count and the same source
// position. Bin never draws a word those calls would not, so a
// checkpoint taken after it is the one the per-field path writes.
func (b *BitReader) Bin(dst []uint64, n uint) {
	if n == 0 {
		return
	}
	out := dst[:(n+63)/64]
	if n <= b.left {
		out[0] = b.word << (64 - b.left)
		b.left -= n
	} else {
		// k fresh words, drawn into out and shifted down behind the
		// buffered word's unread bits.
		k := (n - b.left + 63) / 64
		fresh := out[:k]
		FillWords(b.src, fresh)
		last := fresh[k-1]
		if left := b.left; left != 0 { // else the fresh words are the bin as drawn
			carry := b.word << (64 - left)
			for i, v := range fresh {
				fresh[i] = carry | v>>left
				carry = v << (64 - left)
			}
			if uint(len(out)) > k {
				out[k] = carry
			}
		}
		b.word, b.left = last, 64*k-(n-b.left)
	}
	if r := n % 64; r != 0 {
		out[len(out)-1] &^= ^uint64(0) >> r
	}
}

// Bit returns the next single bit.
func (b *BitReader) Bit() uint64 { return b.Bits(1) }

// Source returns the underlying word source.
func (b *BitReader) Source() Source { return b.src }

// State exposes the reader's buffered word and the count of its
// still-unread low bits — everything needed (with the source's own
// state) to checkpoint a stream mid-word.
func (b *BitReader) State() (word uint64, left uint) { return b.word, b.left }

// SetState restores a checkpointed buffer; left must be ≤ 64.
func (b *BitReader) SetState(word uint64, left uint) {
	if left > 64 {
		panic("rng: BitReader.SetState left > 64")
	}
	b.word, b.left = word, left
}

// WordsConsumed is unavailable on BitReader by design: callers that
// need accounting wrap the Source with a CountingSource.

// Lanes32 adapts a 64-bit source to a stream of 32-bit lanes, high
// half of each word first. Statistical batteries consume lanes
// because the classic tests were specified over 32-bit words and
// because several historical generators hide their defects in the
// low half of a packed 64-bit output.
func Lanes32(src Source) func() uint32 {
	var word uint64
	var have bool
	return func() uint32 {
		if have {
			have = false
			return uint32(word)
		}
		word = src.Uint64()
		have = true
		return uint32(word >> 32)
	}
}

// CountingSource wraps a Source and counts the words drawn from it.
type CountingSource struct {
	Src   Source
	Count uint64
}

// Uint64 draws from the wrapped source and increments the counter.
func (c *CountingSource) Uint64() uint64 {
	c.Count++
	return c.Src.Uint64()
}

// Func adapts a plain function to a Source.
type Func func() uint64

// Uint64 invokes the function.
func (f Func) Uint64() uint64 { return f() }
