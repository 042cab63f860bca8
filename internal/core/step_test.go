package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/expander"
)

func TestStepXYMatchesExpanderStepFull(t *testing.T) {
	// The branchless hot-loop step must agree with the reference
	// graph definition for every neighbour index and position.
	f := func(x, y uint32, bRaw uint8) bool {
		b := uint64(bRaw) & 7
		nx, ny := stepXY(x, y, b)
		want := expander.StepFull(expander.Vertex{X: x, Y: y}, b)
		return nx == want.X && ny == want.Y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStepXYExhaustiveNeighbours(t *testing.T) {
	v := expander.Vertex{X: 0xDEADBEEF, Y: 0x12345678}
	for b := uint64(0); b < 8; b++ {
		nx, ny := stepXY(v.X, v.Y, b)
		want := expander.StepFull(v, b)
		if nx != want.X || ny != want.Y {
			t.Errorf("b=%d: stepXY = (%d,%d), StepFull = %v", b, nx, ny, want)
		}
	}
}

func TestChunkedWalkMatchesPerStepWalk(t *testing.T) {
	// The table walk must be bit-stream-compatible with a pure per-step
	// implementation for every walk length to 130, so every remainder
	// of the 20-step reads and the 4-step maps.
	for l := 1; l <= 130; l++ {
		w1, err := NewWalker(newBits(777), Config{WalkLen: l})
		if err != nil {
			t.Fatal(err)
		}
		// Reference: step the full graph one field at a time over a
		// second copy of the same feed.
		bits := newBits(777)
		g := expander.Full()
		pos := expander.VertexFromID(bits.Bits(64))
		for i := 0; i < DefaultInitWalkLen; i++ {
			pos = g.Step(pos, bits.Bits(3))
		}
		for i := 0; i < l; i++ {
			pos = g.Step(pos, bits.Bits(3))
		}
		if got := w1.Next(); got != pos.ID() {
			t.Fatalf("l=%d: table walk %#x, per-step walk %#x", l, got, pos.ID())
		}
		gw, gl := w1.Bits().State()
		if ww, wl := bits.State(); gw != ww || gl != wl {
			t.Fatalf("l=%d: reader state (%#x, %d), per-step walk (%#x, %d)", l, gw, gl, ww, wl)
		}
	}
}

// walkPoints are the coordinates the table tests walk from: the edges
// of Z_{2^32} and a seeded spread.
func walkPoints() []uint32 {
	pts := []uint32{0, 1, 2, 1 << 31, 1<<32 - 1}
	rnd := rand.New(rand.NewPCG(16, 3))
	for i := 0; i < 4; i++ {
		pts = append(pts, rnd.Uint32())
	}
	return pts
}

// TestStep4MatchesStepXY checks every four-step composite against four
// stepXY steps, the entry's top field first. An affine map is fixed by
// its images of (0,0), (1,0) and (0,1), so agreement there proves an
// entry, its byte packing included; the other points also pin apply.
func TestStep4MatchesStepXY(t *testing.T) {
	pts := walkPoints()
	for i := range step4 {
		for _, x := range pts {
			for _, y := range pts {
				wx, wy := x, y
				for k := mapBits - BitsPerStep; k >= 0; k -= BitsPerStep {
					wx, wy = stepXY(wx, wy, uint64(i>>k&7))
				}
				if gx, gy := step4[i].apply(x, y); gx != wx || gy != wy {
					t.Fatalf("step4[%#o] at (%#x, %#x) = (%#x, %#x), four steps (%#x, %#x)",
						i, x, y, gx, gy, wx, wy)
				}
			}
		}
	}
}

// FuzzWalkBinMatchesSteps walks a bin cut from the fuzz bytes, its pad
// word included, from the start point (start>>32, start) at walk
// lengths of 1 to 300, through as many numbers as the bin holds:
// walkBin's outputs and end position must equal a per-step stepXY walk
// over the same bits, each field read bit by bit, top bit first.
func FuzzWalkBinMatchesSteps(f *testing.F) {
	f.Add(uint16(63), uint64(1), []byte{0x5a, 0x0f, 0xf0, 0x33, 0xcc, 0x96, 0x69, 0x01})
	f.Add(uint16(0), uint64(0), []byte{0xff})
	f.Add(uint16(19), uint64(1<<63), []byte{})
	f.Add(uint16(22), uint64(12345), []byte("expander walk"))
	f.Add(uint16(299), uint64(1<<32-1), []byte{0x80, 0x01})
	f.Fuzz(func(t *testing.T, walkLen uint16, start uint64, data []byte) {
		l := 1 + int(walkLen)%300
		var b bin
		k := 0
		for w := range b {
			for i := 0; i < 8 && len(data) > 0; i++ {
				b[w] = b[w]<<8 | uint64(data[k%len(data)])
				k++
			}
		}
		x, y := uint32(start>>32), uint32(start)
		out := make([]uint64, binBits/(l*BitsPerStep))
		gx, gy := walkBin(&b, x, y, out, l)
		bit := func(off int) uint64 { return b[off>>6] >> (63 - off&63) & 1 }
		off := 0
		for i, got := range out {
			for range l {
				x, y = stepXY(x, y, bit(off)<<2|bit(off+1)<<1|bit(off+2))
				off += BitsPerStep
			}
			if want := uint64(x)<<32 | uint64(y); got != want {
				t.Fatalf("l=%d, number %d of %d: walkBin %#x, per-step walk %#x", l, i, len(out), got, want)
			}
		}
		if gx != x || gy != y {
			t.Fatalf("l=%d: walkBin ends at (%#x, %#x), per-step walk at (%#x, %#x)", l, gx, gy, x, y)
		}
	})
}

// BenchmarkBuildStep4 times the table build every process pays at
// start-up.
func BenchmarkBuildStep4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		step4 = buildStep4()
	}
}
