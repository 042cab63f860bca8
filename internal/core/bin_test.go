package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/chaos"
	"repro/internal/rng"
)

// binFeeds are the feeds the bin tests walk: the glibc feed, whose
// block draw the bins take, and feeds with no block method, which
// rng.FillWords draws a word at a time — a fault injector, a counting
// wrapper and a plain function.
func binFeeds() []struct {
	name string
	src  func(seed uint64) rng.Source
} {
	return []struct {
		name string
		src  func(seed uint64) rng.Source
	}{
		{"glibc", func(seed uint64) rng.Source { return baselines.NewGlibcRand(uint32(seed)) }},
		{"chaos", func(seed uint64) rng.Source {
			cfg := chaos.Config{Seed: seed, MeanPeriod: 97, MeanLen: 5, Sleep: func(time.Duration) {}}
			return chaos.New(cfg, baselines.NewGlibcRand(uint32(seed)))
		}},
		{"counting", func(seed uint64) rng.Source {
			return &rng.CountingSource{Src: baselines.NewGlibcRand(uint32(seed))}
		}},
		{"func", func(seed uint64) rng.Source {
			s := baselines.NewSplitMix64(seed)
			return rng.Func(s.Uint64)
		}},
	}
}

// requireSameWalker fails unless a and b sit at the same vertex, have
// counted the same outputs and hold the same feed-reader buffer.
func requireSameWalker(t *testing.T, what string, a, b *Walker) {
	t.Helper()
	if a.Position() != b.Position() || a.Generated() != b.Generated() {
		t.Fatalf("%s: walker at %v after %d outputs, scalar twin at %v after %d",
			what, a.Position(), a.Generated(), b.Position(), b.Generated())
	}
	aw, al := a.Bits().State()
	bw, bl := b.Bits().State()
	if aw != bw || al != bl {
		t.Fatalf("%s: reader state (%#x, %d), scalar twin (%#x, %d)", what, aw, al, bw, bl)
	}
}

// TestBinFillMatchesNext pins the bin-fed kernel to Algorithm 2 one
// number at a time: for every feed, for every walk length to 130 (every
// remainder of the lone lane's 20-step reads and 4-step maps, and of
// the round kernel's 21-step chunks) and lengths around the bin
// boundaries (2049 steps fit three numbers in a bin and 3000 two, 8192
// steps fill a bin exactly; 8193 do not fit one and take the scalar
// path), and for ragged fill sizes that end bins early, exactly
// and late, a two-lane FillBatch and a lone Walker.Fill either side of
// binMinFill must emit each walker's scalar twin's Next numbers and
// leave it where Next leaves it — a counting feed drawn exactly as
// often, three words per number at walk length 64.
func TestBinFillMatchesNext(t *testing.T) {
	sizes := []int{1, 31, 32, 33, 100, 0, 7, 64}
	var lens []int
	for l := 1; l <= 130; l++ {
		lens = append(lens, l)
	}
	lens = append(lens, 2048, 2049, 3000, 8192, 8193)
	for _, feed := range binFeeds() {
		for _, l := range lens {
			t.Run(fmt.Sprintf("%s/l=%d", feed.name, l), func(t *testing.T) {
				cfg := Config{WalkLen: l}
				var ws, refs [2]*Walker
				var srcs, refSrcs [2]rng.Source
				for j := range ws {
					seed := uint64(2*l + j)
					srcs[j], refSrcs[j] = feed.src(seed), feed.src(seed)
					var err error
					if ws[j], err = NewWalker(rng.NewBitReader(srcs[j]), cfg); err != nil {
						t.Fatal(err)
					}
					if refs[j], err = NewWalker(rng.NewBitReader(refSrcs[j]), cfg); err != nil {
						t.Fatal(err)
					}
				}
				count := func(j int) uint64 {
					if c, ok := srcs[j].(*rng.CountingSource); ok {
						return c.Count
					}
					return 0
				}
				// check compares lane j's fill with its twin's Next calls;
				// before is the lane's feed count ahead of the fill.
				check := func(what string, j int, got []uint64, before uint64) {
					t.Helper()
					n := len(got)
					for i, v := range got {
						if want := refs[j].Next(); v != want {
							t.Fatalf("%s, lane %d, fill of %d, word %d: %#x, Next %#x", what, j, n, i, v, want)
						}
					}
					requireSameWalker(t, fmt.Sprintf("%s, lane %d after a fill of %d", what, j, n), ws[j], refs[j])
					if c, ok := refSrcs[j].(*rng.CountingSource); ok {
						if got, want := count(j), c.Count; got != want {
							t.Fatalf("%s, lane %d after a fill of %d: %d feed words drawn, Next drew %d", what, j, n, got, want)
						}
						if got := count(j) - before; l == 64 && got != uint64(3*n) {
							t.Fatalf("%s, lane %d, fill of %d: %d feed words, want %d", what, j, n, got, 3*n)
						}
					}
				}
				for k := range sizes {
					var before [2]uint64
					dst := make([][]uint64, 2)
					for j := range ws {
						before[j] = count(j)
						dst[j] = make([]uint64, sizes[(k+3*j)%len(sizes)])
					}
					FillBatch(ws[:], dst)
					for j := range ws {
						check("FillBatch", j, dst[j], before[j])
					}
					lone := make([]uint64, sizes[k]+binMinFill-1) // binMinFill-1 and binMinFill included
					before[0] = count(0)
					ws[0].Fill(lone)
					check("Fill", 0, lone, before[0])
				}
			})
		}
	}
}

// TestFillBatchBinFeeds runs a sixteen-lane lockstep fill with ragged
// lane lengths over every feed: each lane must match a scalar twin
// walked with Next, and a counting feed must have been drawn exactly
// three words per 64-step number — the bins never over-draw.
func TestFillBatchBinFeeds(t *testing.T) {
	lens := []int{96, 32, 33, 1, 200, 64, 65, 31, 0, 150, 96, 97, 5, 128, 40, 300}
	for _, feed := range binFeeds() {
		t.Run(feed.name, func(t *testing.T) {
			ws := make([]*Walker, len(lens))
			refs := make([]*Walker, len(lens))
			srcs := make([]rng.Source, len(lens))
			dst := make([][]uint64, len(lens))
			for i, n := range lens {
				srcs[i] = feed.src(uint64(900 + i))
				var err error
				if ws[i], err = NewWalker(rng.NewBitReader(srcs[i]), Config{}); err != nil {
					t.Fatal(err)
				}
				if refs[i], err = NewWalker(rng.NewBitReader(feed.src(uint64(900+i))), Config{}); err != nil {
					t.Fatal(err)
				}
				dst[i] = make([]uint64, n)
			}
			before := make([]uint64, len(lens))
			for i, s := range srcs {
				if c, ok := s.(*rng.CountingSource); ok {
					before[i] = c.Count
				}
			}
			FillBatch(ws, dst)
			for i := range ws {
				for k, v := range dst[i] {
					if want := refs[i].Next(); v != want {
						t.Fatalf("lane %d word %d: %#x, Next %#x", i, k, v, want)
					}
				}
				requireSameWalker(t, fmt.Sprintf("lane %d", i), ws[i], refs[i])
				if c, ok := srcs[i].(*rng.CountingSource); ok {
					if got, want := c.Count-before[i], uint64(3*lens[i]); got != want {
						t.Fatalf("lane %d: %d feed words for %d numbers, want %d", i, got, lens[i], want)
					}
				}
			}
		})
	}
}

// TestConcurrentFillsReuseBins holds more bin-fed fills open at once
// than a sixteen-slot free list keeps: each of 64 fills parks inside
// its first feed draw, bins in hand, until all 64 have arrived. Once a
// wave has returned every group, the next wave must take them back
// instead of allocating — the serving paths' zero-allocation property
// under concurrency, which a single-goroutine alloc test cannot see.
func TestConcurrentFillsReuseBins(t *testing.T) {
	const fills = 64
	var (
		arrived, due atomic.Int64
		park         [fills]atomic.Bool
	)
	ws := make([]*Walker, fills)
	dst := make([][]uint64, fills)
	for i := range ws {
		g := baselines.NewGlibcRand(uint32(i + 1))
		src := rng.Func(func() uint64 {
			if park[i].Swap(false) {
				arrived.Add(1)
				for arrived.Load() < due.Load() {
					runtime.Gosched()
				}
			}
			return g.Uint64()
		})
		var err error
		if ws[i], err = NewWalker(rng.NewBitReader(src), Config{}); err != nil {
			t.Fatal(err)
		}
		dst[i] = make([]uint64, 2*binMinFill)
	}
	start := make(chan int, fills)
	done := make(chan struct{}, fills)
	var wg sync.WaitGroup
	for range fills {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range start {
				ws[i].Fill(dst[i])
				done <- struct{}{}
			}
		}()
	}
	defer wg.Wait()
	defer close(start)
	wave := func() {
		due.Add(fills)
		for i := range park {
			park[i].Store(true)
		}
		for i := range fills {
			start <- i
		}
		for range fills {
			<-done
		}
	}
	// AllocsPerRun's warm-up wave allocates the groups; the 16-slot
	// list this replaced allocated 48 in every later wave as well.
	if allocs := testing.AllocsPerRun(5, wave); allocs > 0 {
		t.Errorf("%v allocations per wave of %d concurrent fills, want 0", allocs, fills)
	}
}
