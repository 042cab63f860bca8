package baselines

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestGlibcRandFillWordsMatchesUint64 holds the block draw to the
// per-word stream from every ring position: after 0 to 33 pre-steps of
// Random, which put the cursor and the word boundaries at every
// position of the 34-value ring, a block of every length from 0 to 200
// must equal that many Uint64 calls and leave the same state (buffer
// and cursor). Lengths from feedVecMin up run the AVX2 block kernel on
// AVX2 hosts, with every remainder mod 8 after it; under purego and
// elsewhere they all run the Go loop.
func TestGlibcRandFillWordsMatchesUint64(t *testing.T) {
	dst := make([]uint64, 200)
	for _, seed := range []uint32{1, 12, 0xDEADBEEF} {
		start := NewGlibcRand(seed)
		for pre := 0; pre < 34; pre++ {
			for n := 0; n <= len(dst); n++ {
				if err := fillMatchesUint64(*start, dst[:n]); err != nil {
					t.Fatalf("seed %d, %d pre-steps, n=%d: %v", seed, pre, n, err)
				}
			}
			start.Random()
		}
	}
}

// FuzzGlibcFillWords runs the same check from an arbitrary seed, up to
// 255 pre-steps and a block of up to 300 words.
func FuzzGlibcFillWords(f *testing.F) {
	f.Add(uint32(1), uint8(0), uint16(96))
	f.Add(uint32(0xDEADBEEF), uint8(33), uint16(17))
	f.Add(uint32(7), uint8(200), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint32, pre uint8, n uint16) {
		g := NewGlibcRand(seed)
		for i := 0; i < int(pre); i++ {
			g.Random()
		}
		if err := fillMatchesUint64(*g, make([]uint64, n%301)); err != nil {
			t.Fatal(err)
		}
	})
}

// fillMatchesUint64 fills dst from one copy of g and draws len(dst)
// Uint64 words from another, and reports the first word or the end
// state in which they differ.
func fillMatchesUint64(g GlibcRand, dst []uint64) error {
	block, word := g, g
	block.FillWords(dst)
	for k, v := range dst {
		if want := word.Uint64(); v != want {
			return fmt.Errorf("word %d: got %#x, want %#x", k, v, want)
		}
	}
	if block != word {
		return fmt.Errorf("state %+v, per-word state %+v", block, word)
	}
	return nil
}

// TestGlibcRand32KeepsItsOwnBlockDraw pins that the naive-usage
// wrapper's block draw serves its own words, not the embedded feed's.
func TestGlibcRand32KeepsItsOwnBlockDraw(t *testing.T) {
	block, word := NewGlibcRand32(7), NewGlibcRand32(7)
	dst := make([]uint64, 40)
	rng.FillWords(block, dst)
	for k, v := range dst {
		if want := word.Uint64(); v != want {
			t.Fatalf("word %d: got %#x, want %#x", k, v, want)
		}
	}
}

func BenchmarkGlibcRandUint64(b *testing.B) {
	g := NewGlibcRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= g.Uint64()
	}
	_ = sink
}

// BenchmarkGlibcRandFillWords times the draw a bin makes: 384 words,
// core.binWords, per call.
func BenchmarkGlibcRandFillWords(b *testing.B) {
	g := NewGlibcRand(1)
	dst := make([]uint64, 384)
	b.SetBytes(8)
	for i := 0; i < b.N; i += len(dst) {
		g.FillWords(dst)
	}
}
