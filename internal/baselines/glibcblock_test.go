package baselines

import (
	"testing"

	"repro/internal/rng"
)

// TestGlibcRandFillWordsMatchesUint64 holds the block draw to the
// per-word stream: every block must equal that many Uint64 calls and
// leave the generator in the same state (buffer and cursor), for block
// sizes that start and end at every cursor position.
func TestGlibcRandFillWordsMatchesUint64(t *testing.T) {
	for _, seed := range []uint32{0, 1, 12, 0xDEADBEEF} {
		block, word := NewGlibcRand(seed), NewGlibcRand(seed)
		dst := make([]uint64, 200)
		for i, n := range []int{1, 2, 3, 11, 34, 35, 67, 96, 200, 0, 5, 17, 33, 101} {
			block.FillWords(dst[:n])
			for k := 0; k < n; k++ {
				if want := word.Uint64(); dst[k] != want {
					t.Fatalf("seed %d block %d (n=%d) word %d: got %#x, want %#x", seed, i, n, k, dst[k], want)
				}
			}
			if *block != *word {
				t.Fatalf("seed %d block %d (n=%d): state %+v, per-word state %+v", seed, i, n, *block, *word)
			}
		}
	}
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

func BenchmarkGlibcRandFillWords(b *testing.B) {
	g := NewGlibcRand(1)
	dst := make([]uint64, 96)
	b.SetBytes(8)
	for i := 0; i < b.N; i += len(dst) {
		g.FillWords(dst)
	}
}
