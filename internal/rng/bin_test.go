package rng

import (
	"fmt"
	"testing"
)

// splitmix is a local full-period test source (the baselines package
// imports rng, so its generators are out of reach here).
type splitmix uint64

func (s *splitmix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// blockSplitmix is splitmix with a block draw, so Bin takes the
// BlockSource branch of FillWords.
type blockSplitmix struct{ splitmix }

func (s *blockSplitmix) FillWords(dst []uint64) {
	for i := range dst {
		dst[i] = s.splitmix.Uint64()
	}
}

// readerAt returns a reader over a fresh source seeded seed whose
// buffered word is the source's first word with left unread bits.
func readerAt(src Source, left uint) *BitReader {
	br := NewBitReader(src)
	if left > 0 {
		br.SetState(src.Uint64(), left)
	}
	return br
}

// TestBitReaderBinMatchesBits holds Bin to its definition: from every
// buffered state (0 to 64 unread bits) and for every bin length from
// 1 to 6,144 bits, Bin must return the bits that successive Bits calls
// return, left-aligned with the bits past n cleared, and leave the
// reader — buffered word, unread count and source position — where
// those calls leave it.
func TestBitReaderBinMatchesBits(t *testing.T) {
	const maxBits = 6144
	step := uint(1)
	if testing.Short() {
		step = 7 // still crosses every word boundary phase
	}
	dst := make([]uint64, maxBits/64+2)
	for left := uint(0); left <= 64; left++ {
		for n := uint(1); n <= maxBits; n += step {
			for _, block := range []bool{false, true} {
				var bs, ws Source
				if block {
					s1, s2 := blockSplitmix{splitmix(left)}, blockSplitmix{splitmix(left)}
					bs, ws = &s1, &s2
				} else {
					s1, s2 := splitmix(left), splitmix(left)
					bs, ws = &s1, &s2
				}
				bin, ref := readerAt(bs, left), readerAt(ws, left)
				for i := range dst {
					dst[i] = 0xA5A5A5A5A5A5A5A5
				}
				bin.Bin(dst, n)
				words := (n + 63) / 64
				for i := uint(0); i < words; i++ {
					k := min(64, n-64*i)
					want := ref.Bits(k) << (64 - k)
					if dst[i] != want {
						t.Fatalf("left %d n %d block %v word %d: got %#x, want %#x", left, n, block, i, dst[i], want)
					}
				}
				if dst[words] != 0xA5A5A5A5A5A5A5A5 {
					t.Fatalf("left %d n %d: Bin wrote past ⌈n/64⌉ words", left, n)
				}
				bw, bl := bin.State()
				rw, rl := ref.State()
				if bw != rw || bl != rl {
					t.Fatalf("left %d n %d block %v: state (%#x, %d), Bits left (%#x, %d)", left, n, block, bw, bl, rw, rl)
				}
				if b, r := bs.Uint64(), ws.Uint64(); b != r {
					t.Fatalf("left %d n %d block %v: source position diverged", left, n, block)
				}
			}
		}
	}
}

// TestBitReaderBinMixesWithBits interleaves bins with the walk's own
// field sizes (63-bit chunks, 3-bit tails, a 64-bit start vertex): the
// stream read through any mix of the two must be the one Bits alone
// reads.
func TestBitReaderBinMixesWithBits(t *testing.T) {
	for _, pattern := range [][]uint{
		{64, 192, 63, 3, 6144},
		{1, 5, 63, 63, 63, 3},
		{3, 6141, 64, 1},
		{191, 193, 2, 4096},
	} {
		t.Run(fmt.Sprint(pattern), func(t *testing.T) {
			s1, s2 := blockSplitmix{7}, splitmix(7)
			mixed, ref := NewBitReader(&s1), NewBitReader(&s2)
			dst := make([]uint64, 6144/64+1)
			for round := 0; round < 20; round++ {
				for i, n := range pattern {
					if (round+i)%2 == 0 {
						if got, want := mixed.Bits(min(n, 64)), ref.Bits(min(n, 64)); got != want {
							t.Fatalf("round %d field %d: Bits %#x, want %#x", round, i, got, want)
						}
						continue
					}
					mixed.Bin(dst, n)
					for w := uint(0); w < (n+63)/64; w++ {
						k := min(64, n-64*w)
						if want := ref.Bits(k) << (64 - k); dst[w] != want {
							t.Fatalf("round %d field %d word %d: Bin %#x, want %#x", round, i, w, dst[w], want)
						}
					}
				}
			}
			mw, ml := mixed.State()
			rw, rl := ref.State()
			if mw != rw || ml != rl {
				t.Fatalf("state (%#x, %d), want (%#x, %d)", mw, ml, rw, rl)
			}
		})
	}
}

// TestFillWordsFallsBackPerWord pins that FillWords draws through
// Uint64 for a source with no block method, so a CountingSource counts
// every word.
func TestFillWordsFallsBackPerWord(t *testing.T) {
	var c counter
	cs := &CountingSource{Src: &c}
	dst := make([]uint64, 5)
	FillWords(cs, dst)
	for i, v := range dst {
		if v != uint64(i+1) {
			t.Fatalf("word %d = %d, want %d", i, v, i+1)
		}
	}
	if cs.Count != 5 {
		t.Fatalf("Count = %d, want 5", cs.Count)
	}
}
