package bitsource

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestScanMatchesScanWords holds screen's pass (scan: the AVX2 loop over
// whole groups of four words on AVX2 hosts, then the word loop for the
// rest) to the word loop alone, on segments of every length from 1 to
// 64 words, with carried runs of 1 and 2 whose byte sometimes equals the
// segment's first. Bytes drawn from 0-2 are dense in repeats, triples
// and sample matches; bytes from 0-15 give segments with triples and
// without (a triple every 256 bytes on average); random words rarely
// repeat a byte. Under purego and off amd64 scan is the word loop, and
// the test holds trivially.
func TestScanMatchesScanWords(t *testing.T) {
	rnd := rand.New(rand.NewPCG(22, 90))
	bytesBelow := func(n uint64) func() uint64 {
		return func() uint64 {
			var v uint64
			for b := 0; b < 8; b++ {
				v |= rnd.Uint64N(n) << (8 * b)
			}
			return v
		}
	}
	feeds := []struct {
		name string
		word func() uint64
	}{
		{"bytes-0-2", bytesBelow(3)},
		{"bytes-0-15", bytesBelow(16)},
		{"random", rnd.Uint64},
	}
	seg := make([]uint64, 64)
	for _, f := range feeds {
		for n := 1; n <= len(seg); n++ {
			for trial := 0; trial < 40; trial++ {
				for i := range seg[:n] {
					seg[i] = f.word()
				}
				pat := seg[rnd.IntN(n)] >> (8 * rnd.UintN(8)) & 0xFF * bytesOf1
				last := seg[0] & 0xFF
				if trial%2 == 1 {
					last = f.word() >> 56
				}
				for _, rep := range []uint64{0, 1 << 63} {
					what := fmt.Sprintf("%s, %d words, trial %d, last %#x, rep %#x", f.name, n, trial, last, rep)
					same, triple, l, r := scan(seg[:n], pat, last, rep)
					wSame, wTriple, wl, wr := scanWords(seg[:n], pat, last, rep)
					if same != wSame || triple != wTriple {
						t.Fatalf("%s: scan counts %d, triple %v; scanWords %d, %v", what, same, triple, wSame, wTriple)
					}
					if l != wl || r>>63 != wr>>63 {
						t.Fatalf("%s: scan ends at byte %#x, run flag %d; scanWords %#x, %d", what, l, r>>63, wl, wr>>63)
					}
				}
			}
		}
	}
}
