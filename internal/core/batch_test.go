package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestFillBatchMatchesScalar pins the batched kernel bitwise against
// the scalar Fill path: for every batch width 1–16 (and one width
// past the lane cap), every lane's output and every lane's post-run
// walker state (position, count, feed-reader buffer) must be
// identical to a scalar twin fed the same stream.
func TestFillBatchMatchesScalar(t *testing.T) {
	const words = 97 // odd, several ring refills worth
	for width := 1; width <= MaxBatchLanes+3; width++ {
		batched := make([]*Walker, width)
		scalar := make([]*Walker, width)
		dst := make([][]uint64, width)
		want := make([][]uint64, width)
		for i := 0; i < width; i++ {
			seed := uint64(1000*width + i)
			var err error
			if batched[i], err = NewWalker(newBits(seed), Config{}); err != nil {
				t.Fatal(err)
			}
			if scalar[i], err = NewWalker(newBits(seed), Config{}); err != nil {
				t.Fatal(err)
			}
			dst[i] = make([]uint64, words)
			want[i] = make([]uint64, words)
		}
		FillBatch(batched, dst)
		for i := range scalar {
			scalar[i].Fill(want[i])
		}
		for i := 0; i < width; i++ {
			for k := 0; k < words; k++ {
				if dst[i][k] != want[i][k] {
					t.Fatalf("width %d lane %d word %d: batched %#x, scalar %#x",
						width, i, k, dst[i][k], want[i][k])
				}
			}
			if batched[i].Position() != scalar[i].Position() {
				t.Fatalf("width %d lane %d: position diverged", width, i)
			}
			if batched[i].Generated() != scalar[i].Generated() {
				t.Fatalf("width %d lane %d: count %d != %d",
					width, i, batched[i].Generated(), scalar[i].Generated())
			}
			bw, bl := batched[i].Bits().State()
			sw, sl := scalar[i].Bits().State()
			if bw != sw || bl != sl {
				t.Fatalf("width %d lane %d: bit-reader state diverged", width, i)
			}
		}
	}
}

// TestFillBatchWalkLengths sweeps walk lengths around the 21-step
// chunk boundary — the chunked/tail split is where a feed-order bug
// would hide — at five lanes and at the full sixteen, whose 100
// numbers per lane take rounds of more than one kernel call at short
// walk lengths.
func TestFillBatchWalkLengths(t *testing.T) {
	for _, l := range []int{1, 3, 20, 21, 22, 42, 63, 64, 65, 127} {
		t.Run(fmt.Sprintf("l=%d", l), func(t *testing.T) { testFillBatchWalkLength(t, 5, 9, l) })
		t.Run(fmt.Sprintf("lanes=%d/l=%d", MaxBatchLanes, l), func(t *testing.T) {
			testFillBatchWalkLength(t, MaxBatchLanes, 100, l)
		})
	}
}

func testFillBatchWalkLength(t *testing.T, width, words, l int) {
	batched := make([]*Walker, width)
	dst := make([][]uint64, width)
	for i := range batched {
		var err error
		if batched[i], err = NewWalker(newBits(uint64(50+i)), Config{WalkLen: l}); err != nil {
			t.Fatal(err)
		}
		dst[i] = make([]uint64, words)
	}
	FillBatch(batched, dst)
	for i := 0; i < width; i++ {
		ref, err := NewWalker(newBits(uint64(50+i)), Config{WalkLen: l})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < words; k++ {
			if want := ref.Next(); dst[i][k] != want {
				t.Fatalf("lane %d word %d: %#x != %#x", i, k, dst[i][k], want)
			}
		}
	}
}

// TestFillBatchRaggedLanes gives every lane a different output
// length (including empty), so lanes retire mid-sweep in every
// possible order; each lane must still match its scalar twin.
func TestFillBatchRaggedLanes(t *testing.T) {
	lens := []int{0, 1, 2, 7, 16, 17, 64, 65, 100, 3, 33, 5, 80, 11, 1, 255}
	width := len(lens)
	batched := make([]*Walker, width)
	dst := make([][]uint64, width)
	for i := range batched {
		var err error
		if batched[i], err = NewWalker(newBits(uint64(900+i)), Config{}); err != nil {
			t.Fatal(err)
		}
		dst[i] = make([]uint64, lens[i])
	}
	FillBatch(batched, dst)
	for i := 0; i < width; i++ {
		ref, _ := NewWalker(newBits(uint64(900+i)), Config{})
		for k := 0; k < lens[i]; k++ {
			if want := ref.Next(); dst[i][k] != want {
				t.Fatalf("lane %d (len %d) word %d mismatch", i, lens[i], k)
			}
		}
		if batched[i].Generated() != uint64(lens[i]) {
			t.Fatalf("lane %d Generated = %d, want %d", i, batched[i].Generated(), lens[i])
		}
	}
}

// TestFillBatchMixedConfigs verifies the scalar fallback: lanes with a
// different walk length ride along in the same call and still produce
// their scalar streams.
func TestFillBatchMixedConfigs(t *testing.T) {
	cfgs := []Config{
		{},            // default walk — lockstep lane
		{WalkLen: 16}, // different walk — fallback
		{},            // lockstep lane
		{WalkLen: 16}, // fallback
	}
	const words = 23
	batched := make([]*Walker, len(cfgs))
	dst := make([][]uint64, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if batched[i], err = NewWalker(newBits(uint64(300+i)), cfg); err != nil {
			t.Fatal(err)
		}
		dst[i] = make([]uint64, words)
	}
	FillBatch(batched, dst)
	for i, cfg := range cfgs {
		ref, err := NewWalker(newBits(uint64(300+i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < words; k++ {
			if want := ref.Next(); dst[i][k] != want {
				t.Fatalf("lane %d word %d mismatch", i, k)
			}
		}
	}
}

// TestFillBatchRestoreMidBatch checkpoints every lane's walker state
// partway through a batched fill, restores fresh walkers from that
// state, finishes the fill batched, and demands the concatenation
// equal one uninterrupted scalar stream — the exact-resume invariant
// under the batched kernel.
func TestFillBatchRestoreMidBatch(t *testing.T) {
	const width, firstHalf, secondHalf = 7, 31, 40
	first := make([]*Walker, width)
	dstA := make([][]uint64, width)
	for i := range first {
		var err error
		if first[i], err = NewWalker(newBits(uint64(70+i)), Config{}); err != nil {
			t.Fatal(err)
		}
		dstA[i] = make([]uint64, firstHalf)
	}
	FillBatch(first, dstA)

	// Checkpoint: position + count + feed-reader state. The feed
	// source is deterministic, so a twin source skipped to the same
	// word offset stands in for the serialized source state.
	restored := make([]*Walker, width)
	dstB := make([][]uint64, width)
	for i := range first {
		w := first[i]
		word, left := w.Bits().State()
		// Rebuild the feed at the same stream offset by replaying the
		// words the original reader consumed.
		src := newBits(uint64(70 + i))
		refW, err := NewWalker(src, Config{})
		if err != nil {
			t.Fatal(err)
		}
		refW.Skip(firstHalf)
		rw, rl := refW.Bits().State()
		if rw != word || rl != left {
			t.Fatalf("lane %d: skip-twin bit state (%#x,%d) != batched (%#x,%d)", i, rw, rl, word, left)
		}
		bits := refW.Bits()
		if restored[i], err = RestoreWalker(bits, w.Config(), w.Position(), w.Generated()); err != nil {
			t.Fatal(err)
		}
		dstB[i] = make([]uint64, secondHalf)
	}
	FillBatch(restored, dstB)

	for i := 0; i < width; i++ {
		ref, _ := NewWalker(newBits(uint64(70+i)), Config{})
		whole := make([]uint64, firstHalf+secondHalf)
		ref.Fill(whole)
		for k, want := range whole {
			var got uint64
			if k < firstHalf {
				got = dstA[i][k]
			} else {
				got = dstB[i][k-firstHalf]
			}
			if got != want {
				t.Fatalf("lane %d word %d: resumed stream diverged", i, k)
			}
		}
		if g := restored[i].Generated(); g != firstHalf+secondHalf {
			t.Fatalf("lane %d Generated = %d", i, g)
		}
	}
}

// TestFillBatchConcurrentGroups stresses concurrent batched fills of
// disjoint walker sets (the shape FillSplit and the serving pool's
// gang refill produce) under -race.
func TestFillBatchConcurrentGroups(t *testing.T) {
	const groups, width, words = 8, 6, 512
	var wg sync.WaitGroup
	results := make([][][]uint64, groups)
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := make([]*Walker, width)
			dst := make([][]uint64, width)
			for i := range ws {
				ws[i], _ = NewWalker(newBits(uint64(g*width+i)), Config{})
				dst[i] = make([]uint64, words)
			}
			FillBatch(ws, dst)
			results[g] = dst
		}(g)
	}
	wg.Wait()
	for g := 0; g < groups; g++ {
		for i := 0; i < width; i++ {
			ref, _ := NewWalker(newBits(uint64(g*width+i)), Config{})
			for k := 0; k < words; k++ {
				if want := ref.Next(); results[g][i][k] != want {
					t.Fatalf("group %d lane %d word %d mismatch", g, i, k)
				}
			}
		}
	}
}

// TestPoolFillMatchesScalarLayout pins FillSplit, which routes
// through FillBatch: the segment layout (chunk = ⌈len/n⌉, walker i
// owns segment i) and every word must equal what a one-goroutine-per-
// walker scalar fill produces.
func TestPoolFillMatchesScalarLayout(t *testing.T) {
	for _, n := range []int{2, 3, 4, 16, 17, 33} {
		for _, total := range []int{1, n - 1, n, n + 1, 4*n + 3, 257} {
			if total < 1 {
				continue
			}
			seed := func(i int) uint64 { return uint64(4000 + i) }
			ws := newWalkers(t, n, seed)
			dst := make([]uint64, total)
			FillSplit(ws, dst)

			want := make([]uint64, total)
			chunk := (total + n - 1) / n
			for i := 0; i < n; i++ {
				lo := i * chunk
				if lo >= total {
					break
				}
				hi := lo + chunk
				if hi > total {
					hi = total
				}
				ref, err := NewWalker(newBits(seed(i)), Config{})
				if err != nil {
					t.Fatal(err)
				}
				ref.Fill(want[lo:hi])
			}
			for k := range dst {
				if dst[k] != want[k] {
					t.Fatalf("n=%d total=%d word %d: %#x != %#x", n, total, k, dst[k], want[k])
				}
			}
			if g := generated(ws); g != uint64(total) {
				t.Fatalf("n=%d total=%d Generated = %d", n, total, g)
			}
		}
	}
}

// BenchmarkFillBatch sweeps 256 numbers per lane. MB/s over lanes=1,
// which runs the scalar path, is what a bin-fed lockstep lane gains;
// lanes=3 and lanes=4 sit either side of vecMinLanes.
func BenchmarkFillBatch(b *testing.B) {
	for _, width := range []int{1, 2, 3, 4, 5, 6, 8, 16} {
		b.Run(fmt.Sprintf("lanes=%d", width), func(b *testing.B) {
			ws := make([]*Walker, width)
			dst := make([][]uint64, width)
			for i := range ws {
				ws[i], _ = NewWalker(newBits(uint64(i)+1), Config{})
				dst[i] = make([]uint64, 256)
			}
			b.SetBytes(int64(8 * 256 * width))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillBatch(ws, dst)
			}
		})
	}
}
