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
	// The 21-steps-per-word fast path must be bit-stream-compatible
	// with a pure per-step implementation, for every walk length
	// around the chunk boundary.
	for _, l := range []int{1, 20, 21, 22, 41, 42, 43, 63, 64, 65, 100} {
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
			t.Fatalf("l=%d: chunked walk %#x, per-step walk %#x", l, got, pos.ID())
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

// TestStep3MatchesStepXY checks every three-step composite against
// three stepXY steps, the entry's top field first. An affine map is
// fixed by its images of (0,0), (1,0) and (0,1), so agreement there
// proves an entry; the other points also pin apply.
func TestStep3MatchesStepXY(t *testing.T) {
	pts := walkPoints()
	for i := range step3 {
		for _, x := range pts {
			for _, y := range pts {
				wx, wy := x, y
				for _, b := range []int{i >> 6, i >> 3 & 7, i & 7} {
					wx, wy = stepXY(wx, wy, uint64(b))
				}
				if gx, gy := step3[i].apply(x, y); gx != wx || gy != wy {
					t.Fatalf("step3[%#o] at (%#x, %#x) = (%#x, %#x), three steps (%#x, %#x)",
						i, x, y, gx, gy, wx, wy)
				}
			}
		}
	}
}

// TestChunk21MatchesStepXY checks the table walk against 21 stepXY
// steps, top field first, on chunks of one repeated field, edge words
// and seeded random chunks, from every walkPoints start.
func TestChunk21MatchesStepXY(t *testing.T) {
	words := []uint64{1, 1 << 60, 0o123456701234567012345}
	for b := uint64(0); b < 8; b++ {
		var w uint64
		for k := 0; k < stepsPerChunk; k++ {
			w = w<<BitsPerStep | b
		}
		words = append(words, w)
	}
	rnd := rand.New(rand.NewPCG(21, 9))
	for i := 0; i < 256; i++ {
		words = append(words, rnd.Uint64()>>1)
	}
	pts := walkPoints()
	for _, w := range words {
		for _, x := range pts {
			for _, y := range pts {
				wx, wy := x, y
				for k := chunkBits - BitsPerStep; k >= 0; k -= BitsPerStep {
					wx, wy = stepXY(wx, wy, w>>uint(k)&7)
				}
				if gx, gy := chunk21(x, y, w); gx != wx || gy != wy {
					t.Fatalf("chunk21(%#x, %#x, %#o) = (%#x, %#x), 21 steps (%#x, %#x)",
						x, y, w, gx, gy, wx, wy)
				}
			}
		}
	}
}
