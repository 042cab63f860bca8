// Package core implements the paper's primary contribution: the
// on-demand pseudo random number generator based on random walks on a
// Gabber–Galil expander graph (Algorithms 1 and 2 of the paper).
//
// A Walker is the per-thread state: a current vertex of the expander
// plus a reader over the stream of cheap "feed" bits supplied by the
// host (the paper's bin array). InitializeGenerator corresponds to
// Algorithm 1 — pick a random start vertex from 64 feed bits, then
// mix with a 64-step walk. Next corresponds to Algorithm 2 — walk l
// further steps, 3 feed bits per step, and emit the 64-bit vertex id
// reached.
//
// Walkers are deliberately unsynchronised: the paper's thread safety
// comes from each GPU thread owning an independent walk. FillSplit
// fills one slice from many walkers.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/expander"
	"repro/internal/rng"
)

// Default walk lengths from the paper: both the initialisation walk
// and the per-number walk are 64 steps.
const (
	DefaultInitWalkLen = 64
	DefaultWalkLen     = 64
)

// BitsPerStep is the number of feed bits consumed per walk step (3
// bits select one of the 7 neighbours; the eighth pattern folds into
// the self-loop).
const BitsPerStep = 3

// The walk fast path pulls chunkBits feed bits at a time —
// stepsPerChunk aligned 3-bit fields per read — so the BitReader is
// consulted once per 21 steps instead of once per step. The batched
// kernel (batch.go) consumes the same chunk shape, which is what
// keeps it bit-stream-compatible with the scalar path.
const (
	stepsPerChunk = 21
	chunkBits     = stepsPerChunk * BitsPerStep // 63
)

// The bulk paths (Fill, FillBatch) read each walker's feed a bin at a
// time — the paper's FEED → bin → GENERATE: one rng.BitReader.Bin call
// draws, health-checks and hands over exactly the bits the walker's
// next numbers consume, up to binBits per lane, and the walk then
// takes its 63-bit chunks and 3-bit tail fields out of the bin by
// funnel shift instead of one reader call per chunk. A fill borrows
// its bins (getBins) for its own length; no walker keeps one.
const (
	binWords = 96 // feed words per lane per bin: 32 numbers at WalkLen 64
	binBits  = 64 * binWords

	// binMinFill is the shortest lone-lane fill that takes a bin;
	// shorter ones call Next. Against k Next calls, a keyed draw of k
	// numbers through a bin took 1.34× as long at k = 1, 1.05-1.08× at
	// 2 and 3, 0.96-1.05× at 4 and 0.83-0.85× from 5 to 16
	// (BenchmarkRegistryDraw, health monitor on, medians of 10-12
	// alternated runs, 2-vCPU Xeon @ 2.1 GHz).
	binMinFill = 5
)

// bin is one lane's bin plus a pad word, so binTake may always read
// the word after the one an offset falls in.
type bin [binWords + 1]uint64

// binGroup holds the bins of one lockstep group, one per lane, and the
// block the AVX2 round kernel writes its outputs to: one row per lane,
// one column per number, 32 numbers (one bin at walk length 64) per
// kernel call.
type binGroup struct {
	bins [MaxBatchLanes]bin
	out  [MaxBatchLanes][32]uint64
}

// binFree keeps the bin groups of finished fills for the next ones, in
// as many stripes as GOMAXPROCS at start-up, rounded up to a power of
// two. A fill takes and returns its group on its first walker's
// stripe, and walkers are dealt to stripes in turn as they are built,
// so fills on different pool shards rarely share a lock. A stripe
// keeps every group returned to it, so once fills have run no fill
// allocates, however many run at once; it holds as many 16 KiB groups
// as fills ever ran on it together.
//
// Bins cannot live on the stack: Bin hands them to the feed through an
// interface call, so they would escape and cost a heap allocation per
// fill. A sync.Pool would not do either: under the race detector it
// drops a quarter of its Puts at random, so the serving path's
// zero-allocation test would fail in the race job.
var binFree = make([]binStripe, binStripeCount(runtime.GOMAXPROCS(0)))

// binStripe is one stripe of binFree, padded to its own cache line.
type binStripe struct {
	mu   sync.Mutex
	free []*binGroup
	_    [32]byte
}

// binStripeCount returns the power of two ≥ procs, capped at 256 (the
// range of Walker.stripe).
func binStripeCount(procs int) int {
	n := 1
	for n < procs && n < 256 {
		n *= 2
	}
	return n
}

// walkerSeq deals stripes to new walkers in turn.
var walkerSeq atomic.Uint32

func nextStripe() uint8 { return uint8(walkerSeq.Add(1)) }

// getBins takes a group from w's stripe, or allocates one.
func getBins(w *Walker) *binGroup {
	st := &binFree[int(w.stripe)&(len(binFree)-1)]
	st.mu.Lock()
	var g *binGroup
	if k := len(st.free); k > 0 {
		g, st.free[k-1] = st.free[k-1], nil
		st.free = st.free[:k-1]
	}
	st.mu.Unlock()
	if g == nil {
		g = new(binGroup)
	}
	return g
}

// putBins returns g to w's stripe.
func putBins(w *Walker, g *binGroup) {
	st := &binFree[int(w.stripe)&(len(binFree)-1)]
	st.mu.Lock()
	st.free = append(st.free, g)
	st.mu.Unlock()
}

// binTake returns the 64 bin bits starting at bit 64·w+sh (sh < 64).
// For sh == 0 the second term is zero: bin[w+1]>>1 has a clear top bit.
func binTake(b *bin, w, sh uint) uint64 {
	return b[w]<<sh | b[w+1]>>1>>(^sh&63)
}

// Config parameterises a Walker.
type Config struct {
	// InitWalkLen is the length of the Algorithm 1 mixing walk.
	// 0 means DefaultInitWalkLen.
	InitWalkLen int
	// WalkLen is the length l of the Algorithm 2 walk performed per
	// generated number. 0 means DefaultWalkLen.
	WalkLen int
}

func (c Config) withDefaults() Config {
	if c.InitWalkLen == 0 {
		c.InitWalkLen = DefaultInitWalkLen
	}
	if c.WalkLen == 0 {
		c.WalkLen = DefaultWalkLen
	}
	return c
}

func (c Config) validate() error {
	if c.InitWalkLen < 0 {
		return fmt.Errorf("core: negative InitWalkLen %d", c.InitWalkLen)
	}
	if c.WalkLen < 1 {
		return fmt.Errorf("core: WalkLen %d < 1", c.WalkLen)
	}
	return nil
}

// Walker is one independent expander walk — the per-thread state of
// the generator. It is NOT safe for concurrent use; that is by
// design (see the package comment).
type Walker struct {
	cfg    Config
	stripe uint8 // binFree stripe of the fills this walker leads
	pos    expander.Vertex
	bits   *rng.BitReader
	count  uint64 // numbers generated
}

// NewWalker runs Algorithm 1 (InitializeGenerator) against the given
// feed-bit stream and returns a ready walker: the start vertex is
// assembled from 64 feed bits, then mixed by an InitWalkLen-step
// walk.
func NewWalker(bits *rng.BitReader, cfg Config) (*Walker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bits == nil {
		return nil, fmt.Errorf("core: nil bit source")
	}
	w := &Walker{
		cfg:    cfg,
		stripe: nextStripe(),
		pos:    expander.VertexFromID(bits.Bits(64)),
		bits:   bits,
	}
	w.walk(cfg.InitWalkLen)
	return w, nil
}

// walk advances the position by l steps, consuming 3 bits per step.
// It pulls 63 feed bits (21 steps) at a time and walks them through
// chunk21, the generator's hot loop.
func (w *Walker) walk(l int) {
	x, y := w.pos.X, w.pos.Y
	i := 0
	for l-i >= stepsPerChunk {
		x, y = chunk21(x, y, w.bits.Bits(chunkBits)) // 21 aligned 3-bit fields
		i += stepsPerChunk
	}
	// Tail steps one field at a time, so exactly 3·l bits are
	// consumed and the stream stays aligned with the reference
	// (per-step) implementation.
	for ; i < l; i++ {
		x, y = stepXY(x, y, w.bits.Bits(BitsPerStep))
	}
	w.pos = expander.Vertex{X: x, Y: y}
}

// Gabber–Galil step tables: neighbour b updates y by 2x+c (mask
// maskY) or x by 2y+c (mask maskX); b ∈ {0, 7} is the folded
// self-loop. Branchless — the generator's innermost operation.
var (
	stepC     = [8]uint32{0, 0, 1, 2, 0, 1, 2, 0}
	stepMaskY = [8]uint32{0, ^uint32(0), ^uint32(0), ^uint32(0), 0, 0, 0, 0}
	stepMaskX = [8]uint32{0, 0, 0, 0, ^uint32(0), ^uint32(0), ^uint32(0), 0}
)

// stepXY applies neighbour map b to (x, y); equivalent to
// expander.StepFull but branch-free.
func stepXY(x, y uint32, b uint64) (uint32, uint32) {
	c := stepC[b]
	y += (2*x + c) & stepMaskY[b]
	x += (2*y + c) & stepMaskX[b]
	return x, y
}

// affine is an affine map of Z_{2^32}²: (x, y) → (a·x + b·y + e,
// c·x + d·y + f). Every step is one (it adds 2x+c to y or 2y+c to x),
// so any run of steps composes to one.
type affine struct{ a, b, c, d, e, f uint32 }

func (m *affine) apply(x, y uint32) (uint32, uint32) {
	return m.a*x + m.b*y + m.e, m.c*x + m.d*y + m.f
}

// step3 holds the composite of every run of three steps (12 KiB),
// indexed by the run's three fields as one 9-bit slice of a chunk, the
// first step's field on top. An affine map is fixed by its images of
// (0,0), (1,0) and (0,1), so each entry is three stepXY walks.
var step3 = func() (t [512]affine) {
	for i := range t {
		walk3 := func(x, y uint32) (uint32, uint32) {
			for k := 6; k >= 0; k -= BitsPerStep {
				x, y = stepXY(x, y, uint64(i>>k&7))
			}
			return x, y
		}
		e, f := walk3(0, 0)
		x1, y1 := walk3(1, 0)
		x2, y2 := walk3(0, 1)
		t[i] = affine{a: x1 - e, b: x2 - e, c: y1 - f, d: y2 - f, e: e, f: f}
	}
	return t
}()

// chunk21 advances one walk through a 63-bit feed chunk: 21 steps, the
// chunk's top 3-bit field first, as seven step3 maps of four multiplies
// each. It walks Next, Skip, Algorithm 1 and every lane outside an AVX2
// lockstep group (walkLanes); three calls took 74-95 ns, against 236-282
// ns as 21 dependent stepXY calls each (2-vCPU Xeon @ 2.1 GHz).
func chunk21(x, y uint32, word uint64) (uint32, uint32) {
	for k := chunkBits - 3*BitsPerStep; k >= 0; k -= 3 * BitsPerStep {
		x, y = step3[word>>uint(k)&511].apply(x, y)
	}
	return x, y
}

// Next runs Algorithm 2 (GetNextRand): an l-step walk whose endpoint
// id is the next random number.
func (w *Walker) Next() uint64 {
	w.walk(w.cfg.WalkLen)
	w.count++
	return w.pos.ID()
}

// Uint64 makes Walker an rng.Source.
func (w *Walker) Uint64() uint64 { return w.Next() }

// Position returns the walk's current vertex.
func (w *Walker) Position() expander.Vertex { return w.pos }

// Bits returns the walker's feed-bit reader (for checkpointing; see
// RestoreWalker).
func (w *Walker) Bits() *rng.BitReader { return w.bits }

// RestoreWalker reconstructs a walker from checkpointed state
// without running Algorithm 1: the position, output count and
// feed-bit reader are taken as-is. The caller is responsible for the
// bits stream being positioned where the checkpoint left it.
func RestoreWalker(bits *rng.BitReader, cfg Config, pos expander.Vertex, generated uint64) (*Walker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bits == nil {
		return nil, fmt.Errorf("core: nil bit source")
	}
	return &Walker{
		cfg:    cfg,
		stripe: nextStripe(),
		pos:    pos,
		bits:   bits,
		count:  generated,
	}, nil
}

// Generated returns how many numbers this walker has produced.
func (w *Walker) Generated() uint64 { return w.count }

// Config returns the walker's effective configuration.
func (w *Walker) Config() Config { return w.cfg }

// Fill writes len(dst) successive numbers into dst — the batch-mode
// API used when a caller wants a block at once (the paper's batch
// size S is a scheduling knob, not a different algorithm). A fill of
// binMinFill numbers or more by a bin-fed walker runs FillBatch's loop
// as its one lane, reading the feed a bin at a time; shorter fills
// call Next. Either way the numbers, the feed bits consumed and the
// reader left behind are those of len(dst) Next calls.
func (w *Walker) Fill(dst []uint64) {
	if w.binFed() && len(dst) >= binMinFill {
		fillBatchGroup([]*Walker{w}, [][]uint64{dst})
		return
	}
	for i := range dst {
		dst[i] = w.Next()
	}
}

// binFed reports whether w's fills can read bins: one number's feed
// bits fit in a bin.
func (w *Walker) binFed() bool {
	return w.cfg.WalkLen*BitsPerStep <= binBits
}

// Skip advances the stream by n numbers without materialising them:
// one long walk of n·WalkLen steps, identical in effect (and feed
// consumption) to n discarded Next calls.
func (w *Walker) Skip(n uint64) {
	for ; n > 0; n-- {
		w.walk(w.cfg.WalkLen)
		w.count++
	}
}

// FillSplit splits dst into contiguous segments of ⌈len(dst)/len(ws)⌉
// numbers, walker i filling segment i, and fills them through the
// batched lockstep kernel (FillBatch) — the software image of the
// paper's "each GPU thread performs its own walk". Each segment holds
// exactly what ws[i].Fill would write there, so the fill is
// reproducible and identical to a one-goroutine-per-walker scalar
// fill. ws must be non-empty, its walkers distinct, and none of them
// used elsewhere during the call.
//
// Scheduling: the walkers are partitioned into lockstep groups of up
// to MaxBatchLanes lanes; groups run on their own goroutines only
// when spare cores exist, so a single-core host gets one pipelined
// sweep with no scheduling overhead while a many-core host still
// saturates every core.
func FillSplit(ws []*Walker, dst []uint64) {
	n := len(ws)
	if len(dst) == 0 {
		return
	}
	if n == 1 {
		ws[0].Fill(dst)
		return
	}
	var segArr [MaxBatchLanes][]uint64
	segs := segArr[:0]
	if n > MaxBatchLanes {
		segs = make([][]uint64, 0, n)
	}
	chunk := (len(dst) + n - 1) / n // n·chunk ≥ len(dst): at most n segments
	for lo := 0; lo < len(dst); lo += chunk {
		segs = append(segs, dst[lo:min(lo+chunk, len(dst))])
	}
	used := len(segs)
	groups := fillGroups(used)
	if groups == 1 {
		FillBatch(ws[:used], segs)
		return
	}
	per := (used + groups - 1) / groups
	var wg sync.WaitGroup
	for g := 0; g < used; g += per {
		hi := g + per
		if hi > used {
			hi = used
		}
		wg.Add(1)
		go func(ws []*Walker, ds [][]uint64) {
			defer wg.Done()
			FillBatch(ws, ds)
		}(ws[g:hi], segs[g:hi])
	}
	wg.Wait()
}

// fillGroups picks how many lockstep groups to run n lanes as: one
// group per core when lanes are scarce (each group still as wide as
// possible for ILP), never more groups than lanes, and never fewer
// than the lane cap forces.
func fillGroups(lanes int) int {
	g := runtime.GOMAXPROCS(0)
	if g > lanes {
		g = lanes
	}
	if min := (lanes + MaxBatchLanes - 1) / MaxBatchLanes; g < min {
		g = min
	}
	return g
}
