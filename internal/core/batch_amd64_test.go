//go:build amd64 && !purego

package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestWalkBinsMatchesWalkBin runs the AVX2 round kernel (walkBins and
// its walkLanes calls) straight on prepared bins, with no feed and no
// fillBatchGroup around it: for every bin pattern, start point, live
// lane count, walk length and round length (rounds of 33 numbers or
// more span two kernel calls), each live lane's outputs and end
// position must equal walkBin's on the same bin. Dead slots hold
// random bins and positions, which must not leak into the live lanes.
func TestWalkBinsMatchesWalkBin(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2")
	}
	rnd := rand.New(rand.NewPCG(19, 4))
	patterns := []struct {
		name string
		word func() uint64
	}{
		{"random", rnd.Uint64},
		{"zero", func() uint64 { return 0 }},
		{"ones", func() uint64 { return ^uint64(0) }},
		{"aa", func() uint64 { return 0xAAAAAAAAAAAAAAAA }},
	}
	starts := []uint32{0, 1, 1 << 31, 1<<32 - 1, rnd.Uint32()}
	g := new(binGroup)
	var x, y [MaxBatchLanes]uint32
	var outs [MaxBatchLanes][]uint64
	for _, p := range patterns {
		for s := range starts {
			for _, n := range []int{5, 8, 9, 15, 16} {
				for _, l := range []int{1, 3, 20, 21, 22, 42, 63, 64, 65, 127, 2048} {
					chunks, tail := l/stepsPerChunk, l%stepsPerChunk
					most := binBits / (l * BitsPerStep)
					for _, r := range []int{1, 31, 32, 33, most} {
						if r > most {
							continue
						}
						for j := range g.bins {
							word := p.word
							if j >= n {
								word = rnd.Uint64
							}
							for w := range g.bins[j] {
								g.bins[j][w] = word()
							}
							x[j], y[j] = rnd.Uint32(), rnd.Uint32()
							if j < n {
								x[j], y[j] = starts[(s+j)%len(starts)], starts[(s+2*j+1)%len(starts)]
								outs[j] = make([]uint64, r)
							}
						}
						x0, y0 := x, y
						walkBins(g, &x, &y, &outs, n, r, chunks, tail)
						for j := 0; j < n; j++ {
							want := make([]uint64, r)
							wx, wy := walkBin(&g.bins[j], x0[j], y0[j], want, chunks, tail)
							what := func() string {
								return fmt.Sprintf("%s bins, start %d, %d lanes, l=%d, %d numbers, lane %d", p.name, s, n, l, r, j)
							}
							for i := range want {
								if outs[j][i] != want[i] {
									t.Fatalf("%s, number %d: kernel %#x, walkBin %#x", what(), i, outs[j][i], want[i])
								}
							}
							if x[j] != wx || y[j] != wy {
								t.Fatalf("%s: kernel ends at (%#x, %#x), walkBin at (%#x, %#x)", what(), x[j], y[j], wx, wy)
							}
						}
					}
				}
			}
		}
	}
}
