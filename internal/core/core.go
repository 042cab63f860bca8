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
// comes from each GPU thread owning an independent walk. Pool
// provides the matching many-walker construct; SafeWalker wraps a
// single walker in a mutex for callers who want to share one.
package core

import (
	"fmt"
	mathbits "math/bits"
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
	// shorter ones call Next. A lone walk is bound by its serial step
	// chain, which hides most of the per-field reads, so the bin's
	// fixed cost pays off late: against Next calls, one number through
	// a bin took 1.3-1.4× as long, 16 numbers about as long, and 64
	// numbers 0.87-1.01× (glibc feed with and without the health
	// monitor, 2-vCPU Xeon @ 2.1 GHz).
	binMinFill = 16
)

// bin is one lane's bin plus a pad word, so binTake may always read
// the word after the one an offset falls in.
type bin [binWords + 1]uint64

// binGroup holds the bins of one lockstep group, one per lane.
type binGroup [MaxBatchLanes]bin

// binFree keeps the bin groups of finished fills for the next ones, in
// as many stripes as GOMAXPROCS at start-up, rounded up to a power of
// two. A fill takes and returns its group on its first walker's
// stripe, and walkers are dealt to stripes in turn as they are built,
// so fills on different pool shards rarely share a lock. A stripe
// keeps every group returned to it, so once fills have run no fill
// allocates, however many run at once; it holds as many 12 KiB groups
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
	// Graph is the expander to walk on; nil means the production
	// graph (m = 2^32).
	Graph *expander.Graph
}

func (c Config) withDefaults() Config {
	if c.InitWalkLen == 0 {
		c.InitWalkLen = DefaultInitWalkLen
	}
	if c.WalkLen == 0 {
		c.WalkLen = DefaultWalkLen
	}
	if c.Graph == nil {
		c.Graph = expander.Full()
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
	graph  *expander.Graph
	full   bool
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
		graph:  cfg.Graph,
		full:   cfg.Graph.IsFull(),
		stripe: nextStripe(),
		bits:   bits,
	}
	if w.full {
		w.pos = expander.VertexFromID(bits.Bits(64))
	} else {
		// Draw each coordinate uniformly from Z_m by rejection; the
		// old `label % m` clamp over-weighted low residues whenever m
		// was not a power of two.
		m := uint32(cfg.Graph.M())
		w.pos = expander.Vertex{X: uniformMod(bits, m), Y: uniformMod(bits, m)}
	}
	w.walk(cfg.InitWalkLen)
	return w, nil
}

// uniformMod returns a uniform value in [0, m) by drawing ⌈log₂ m⌉
// feed bits and rejecting values ≥ m (exact for powers of two, < 2
// expected draws otherwise).
func uniformMod(bits *rng.BitReader, m uint32) uint32 {
	k := uint(mathbits.Len32(m - 1))
	if k == 0 { // m == 1
		return 0
	}
	for {
		if v := uint32(bits.Bits(k)); v < m {
			return v
		}
	}
}

// walk advances the position by l steps, consuming 3 bits per step.
// The full-graph fast path pulls 63 feed bits at a time (21 steps)
// and inlines the neighbour maps; this is the generator's hot loop
// and the difference between ≈ 1.8 µs and ≈ 0.1 µs per number on the
// CPU backend.
func (w *Walker) walk(l int) {
	pos := w.pos
	if !w.full {
		for i := 0; i < l; i++ {
			pos = w.graph.Step(pos, w.bits.Bits(BitsPerStep))
		}
		w.pos = pos
		return
	}
	x, y := pos.X, pos.Y
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

// chunk21 advances one walk through a 63-bit feed chunk: 21 steps, the
// chunk's top 3-bit field first.
func chunk21(x, y uint32, word uint64) (uint32, uint32) {
	for k := chunkBits - BitsPerStep; k >= 0; k -= BitsPerStep {
		x, y = stepXY(x, y, word>>uint(k)&7)
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
		graph:  cfg.Graph,
		full:   cfg.Graph.IsFull(),
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

// binFed reports whether w's fills can read bins: it walks the full
// graph and one number's feed bits fit in a bin.
func (w *Walker) binFed() bool {
	return w.full && w.cfg.WalkLen*BitsPerStep <= binBits
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

// SafeWalker is a Walker behind a mutex, for callers that insist on
// sharing one stream across goroutines. Prefer Pool.
type SafeWalker struct {
	mu sync.Mutex
	w  *Walker
}

// NewSafeWalker wraps w.
func NewSafeWalker(w *Walker) *SafeWalker { return &SafeWalker{w: w} }

// Next returns the next number under the lock.
func (s *SafeWalker) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Next()
}

// Uint64 makes SafeWalker an rng.Source.
func (s *SafeWalker) Uint64() uint64 { return s.Next() }

// Pool is a set of independent walkers, one per worker — the
// software image of the paper's "each GPU thread performs its own
// walk". Generation across distinct walkers is embarrassingly
// parallel and lock-free.
type Pool struct {
	walkers []*Walker
}

// NewPool builds n walkers. Each walker receives its own BitReader
// from newBits (called n times with the worker index), so streams
// are independent and the pool is race-free by construction.
func NewPool(n int, cfg Config, newBits func(worker int) *rng.BitReader) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: pool size %d < 1", n)
	}
	if newBits == nil {
		return nil, fmt.Errorf("core: nil bit-source factory")
	}
	p := &Pool{walkers: make([]*Walker, n)}
	for i := range p.walkers {
		w, err := NewWalker(newBits(i), cfg)
		if err != nil {
			return nil, fmt.Errorf("core: walker %d: %w", i, err)
		}
		p.walkers[i] = w
	}
	return p, nil
}

// PoolFromWalkers wraps already-constructed walkers (typically
// restored from a checkpoint; see hybridprng.Parallel) into a Pool
// without running Algorithm 1 again.
func PoolFromWalkers(ws []*Walker) (*Pool, error) {
	if len(ws) < 1 {
		return nil, fmt.Errorf("core: pool size %d < 1", len(ws))
	}
	for i, w := range ws {
		if w == nil {
			return nil, fmt.Errorf("core: nil walker %d", i)
		}
	}
	return &Pool{walkers: ws}, nil
}

// Size returns the number of walkers.
func (p *Pool) Size() int { return len(p.walkers) }

// Walker returns the i-th walker; callers own its goroutine
// affinity.
func (p *Pool) Walker(i int) *Walker { return p.walkers[i] }

// Fill splits dst into contiguous shards and fills each from its own
// walker through the batched lockstep kernel (FillBatch). The
// numbers each walker contributes are deterministic given its feed
// stream; the shard layout is deterministic too, so Fill is
// reproducible — and identical to what the old one-goroutine-per-
// walker scalar path produced.
//
// Scheduling: the walkers are partitioned into lockstep groups of up
// to MaxBatchLanes lanes; groups run on their own goroutines only
// when spare cores exist, so a single-core host gets one pipelined
// sweep with no scheduling overhead while a many-core host still
// saturates every core.
func (p *Pool) Fill(dst []uint64) {
	n := len(p.walkers)
	if len(dst) == 0 {
		return
	}
	if n == 1 {
		p.walkers[0].Fill(dst)
		return
	}
	// Contiguous per-walker segments, same layout as always.
	var segArr [MaxBatchLanes][]uint64
	segs := segArr[:0]
	if n > MaxBatchLanes {
		segs = make([][]uint64, 0, n)
	}
	chunk := (len(dst) + n - 1) / n
	used := 0
	for i := 0; i < n; i++ {
		lo := i * chunk
		if lo >= len(dst) {
			break
		}
		hi := lo + chunk
		if hi > len(dst) {
			hi = len(dst)
		}
		segs = append(segs, dst[lo:hi])
		used++
	}
	groups := fillGroups(used)
	if groups == 1 {
		FillBatch(p.walkers[:used], segs)
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
		}(p.walkers[g:hi], segs[g:hi])
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

// Generated sums the per-walker output counts.
func (p *Pool) Generated() uint64 {
	var total uint64
	for _, w := range p.walkers {
		total += w.count
	}
	return total
}
