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

// The AVX2 round kernel (batch_amd64.s) walks each number as chunks of
// stepsPerChunk steps, then single steps. A lone lane walks mapSteps
// steps per step4 lookup and reads its feed readBits at a time: five
// maps per read, then whole maps, then single steps. The reader draws a
// word only when a read needs more bits than it holds, so every grouping
// of a walk's fields leaves the reader where the per-step walk leaves it.
const (
	stepsPerChunk = 21
	chunkBits     = stepsPerChunk * BitsPerStep // 63
	mapSteps      = 4
	mapBits       = mapSteps * BitsPerStep // 12
	readSteps     = 5 * mapSteps
	readBits      = readSteps * BitsPerStep // 60
)

// The bulk paths (Fill, FillBatch) read each walker's feed a bin at a
// time — the paper's FEED → bin → GENERATE: one rng.BitReader.Bin call
// draws, health-checks and hands over exactly the bits the walker's
// next numbers consume, up to binBits per lane, and the walk then
// takes its fields out of the bin by funnel shift instead of one reader
// call per read. A fill borrows its bins (getBins) for its own length;
// no walker keeps one.
//
// A bin is the paper's block (Fig. 5): each round pays a feed draw, a
// health screen, the feed kernel's ring transposition and the round
// loop once per lane, however many numbers the bin holds. Against
// 384-word bins, the health-on 64 KiB pool fill ran 1.11× as long with
// 192-word bins (slower in 10 of 10 alternated runs) and 0.98× with
// 768-word ones (faster in 10 of 20, within the runs' spread), whose
// groups take twice the memory (BenchmarkPool/fill-bytes-64KiB-health,
// medians at -cpu 1, 2-vCPU Xeon @ 2.1 GHz).
const (
	binWords = 384 // feed words per lane per bin: 128 numbers at WalkLen 64
	binBits  = 64 * binWords

	// binMinFill is the shortest lone-lane fill that takes a bin;
	// shorter ones call Next. Against k Next calls, a keyed draw of k
	// numbers through a bin took 1.61× as long at k = 1, 1.42× at 2,
	// 1.09× at 3, 0.95× at 4 and 5 (lower in 23 and 21 of 40), 0.89× at
	// 6 and 0.69× at 16 (BenchmarkRegistryDraw, health monitor on,
	// medians of 24-40 alternated pairs at -cpu 1, 2-vCPU Xeon @
	// 2.1 GHz). A short fill's bin holds only its own numbers' bits,
	// whatever the bin's capacity.
	binMinFill = 5
)

// bin is one lane's bin plus a pad word, so binTake may always read
// the word after the one an offset falls in.
type bin [binWords + 1]uint64

// binGroup holds the bins of one lockstep group, one per lane, and the
// block the AVX2 round kernel writes its outputs to: one row per lane,
// one column per number, 32 numbers (a quarter bin at walk length 64)
// per kernel call.
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
// allocates, however many run at once; it holds as many groups as
// fills ever ran on it together. A group is about 52 KiB, so at
// randd's in-flight cap of 256 requests, one group each, the stripes
// hold about 13 MiB.
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

// walk advances the position by l steps, 3 bits per step, for Next, Skip
// and Algorithm 1; walkBin walks bins the same way. A read's five maps
// are written out, top field first: no function holding them inlines,
// and a call per read made walkBin take about 1.16× as long.
func (w *Walker) walk(l int) {
	x, y := w.pos.X, w.pos.Y
	for ; l >= readSteps; l -= readSteps {
		v := w.bits.Bits(readBits)
		x, y = step4[v>>48&4095].apply(x, y)
		x, y = step4[v>>36&4095].apply(x, y)
		x, y = step4[v>>24&4095].apply(x, y)
		x, y = step4[v>>12&4095].apply(x, y)
		x, y = step4[v&4095].apply(x, y)
	}
	for ; l >= mapSteps; l -= mapSteps {
		x, y = step4[w.bits.Bits(mapBits)].apply(x, y)
	}
	for ; l > 0; l-- {
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
// so any run of steps composes to one. No run of four steps has a
// coefficient above 40 (29 in the matrix), so each is a byte, and an
// entry is padded to 8 bytes.
type affine struct{ a, b, c, d, e, f, _, _ uint8 }

func (m *affine) apply(x, y uint32) (uint32, uint32) {
	return uint32(m.a)*x + uint32(m.b)*y + uint32(m.e), uint32(m.c)*x + uint32(m.d)*y + uint32(m.f)
}

// step4 holds the composite of every run of four steps (32 KiB, inside
// L1), indexed by the run's four fields as one 12-bit slice, the first
// step's field on top.
var step4 = buildStep4()

// buildStep4 grows the table one step at a time from the identity, the
// run of no steps: entry i of the runs a step shorter becomes entries
// 8i..8i+7, its run followed by field 0..7's step. A step adds 2x + c to
// y or 2y + c to x, so it adds twice the map's x row to its y row, or
// the reverse, and c to the translation. The table fills in place from
// the top entry down, so each entry is read before any is written over
// it. The build takes about 27 µs (BenchmarkBuildStep4, 2-vCPU Xeon @
// 2.1 GHz).
func buildStep4() (t [1 << mapBits]affine) {
	t[0] = affine{a: 1, d: 1}
	for n := 1; n < len(t); n <<= BitsPerStep {
		for i := n - 1; i >= 0; i-- {
			m := t[i]
			for b := range 8 {
				s, c := m, uint8(stepC[b])
				if stepMaskY[b] != 0 {
					s.c, s.d, s.f = m.c+2*m.a, m.d+2*m.b, m.f+2*m.e+c
				} else if stepMaskX[b] != 0 {
					s.a, s.b, s.e = m.a+2*m.c, m.b+2*m.d, m.e+2*m.f+c
				}
				t[i<<BitsPerStep|b] = s
			}
		}
	}
	return t
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
