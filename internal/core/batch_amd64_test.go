//go:build amd64 && !purego

package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/baselines"
)

// TestWalkBinsMatchesWalkBin runs the AVX2 round kernel (walkBins and
// its walkLanes calls) straight on prepared bins, with no feed and no
// fillBatchGroup around it: for every bin pattern, start point, live
// lane count, walk length and round length (rounds of 33 numbers or
// more span two kernel calls), each live lane's outputs and end
// position must equal walkBin's on the same bin. Dead slots hold
// random bins and positions, which must not leak into the live lanes.
// The kernel walks a segment ten fields at a time: walk lengths 10, 31
// and 52 end on a tail of exactly ten fields, and 11, 32 and 2048 on
// ten plus one.
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
				for _, l := range []int{1, 3, 10, 11, 20, 21, 22, 31, 32, 42, 52, 63, 64, 65, 127, 2048} {
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

// FuzzWalkBinsMatchesWalkBin runs the AVX2 round kernel on bins cut
// from the fuzz bytes, cycled to fill all sixteen slots, with
// vecMinLanes to 16 live lanes, walk lengths of 1 to 400, round lengths
// of 1 to a bin's worth and start points drawn from start: every live
// lane's outputs and end position must equal walkBin's on the same bin.
func FuzzWalkBinsMatchesWalkBin(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2")
	}
	f.Add(uint8(11), uint16(63), uint8(31), uint64(1), []byte{0x5a, 0x0f, 0xf0, 0x33, 0xcc, 0x96, 0x69, 0x01})
	f.Add(uint8(0), uint16(9), uint8(0), uint64(0), []byte{0xff})
	f.Add(uint8(3), uint16(10), uint8(200), uint64(1<<63), []byte{})
	f.Add(uint8(7), uint16(31), uint8(65), uint64(12345), []byte("expander walk"))
	f.Fuzz(func(t *testing.T, lanes uint8, walkLen uint16, round uint8, start uint64, data []byte) {
		n := vecMinLanes + int(lanes)%(MaxBatchLanes-vecMinLanes+1)
		l := 1 + int(walkLen)%400
		chunks, tail := l/stepsPerChunk, l%stepsPerChunk
		r := 1 + int(round)%(binBits/(l*BitsPerStep))
		g := new(binGroup)
		var x, y [MaxBatchLanes]uint32
		var outs [MaxBatchLanes][]uint64
		k := 0
		for j := range g.bins {
			for w := range g.bins[j] {
				for b := 0; b < 8 && len(data) > 0; b++ {
					g.bins[j][w] = g.bins[j][w]<<8 | uint64(data[k%len(data)])
					k++
				}
			}
			v := baselines.Finalize64(start + uint64(j))
			x[j], y[j] = uint32(v>>32), uint32(v)
			outs[j] = make([]uint64, r)
		}
		x0, y0 := x, y
		walkBins(g, &x, &y, &outs, n, r, chunks, tail)
		for j := 0; j < n; j++ {
			want := make([]uint64, r)
			wx, wy := walkBin(&g.bins[j], x0[j], y0[j], want, chunks, tail)
			for i := range want {
				if outs[j][i] != want[i] {
					t.Fatalf("%d lanes, l=%d, %d numbers, lane %d, number %d: kernel %#x, walkBin %#x", n, l, r, j, i, outs[j][i], want[i])
				}
			}
			if x[j] != wx || y[j] != wy {
				t.Fatalf("%d lanes, l=%d, %d numbers, lane %d: kernel ends at (%#x, %#x), walkBin at (%#x, %#x)", n, l, r, j, x[j], y[j], wx, wy)
			}
		}
	})
}
