// Package hybridprng is an on-demand, scalable, thread-safe pseudo
// random number generator based on random walks on a Gabber–Galil
// expander graph — a from-scratch Go reproduction of Banerjee, Bahl
// and Kothapalli, "An On-Demand Fast Parallel Pseudo Random Number
// Generator with Applications" (IPDPS Workshops 2012).
//
// Each Generator owns an independent walk on a 7-regular expander
// over Z_2³² × Z_2³²; a cheap feed generator (glibc rand() by
// default) supplies 3 bits per walk step, and every call to Uint64
// walks 64 steps and returns the 64-bit vertex id it lands on. The
// expander's rapid mixing amplifies the weak feed bits into output
// that passes the DIEHARD battery and the TestU01-style batteries in
// internal/testu01 (see EXPERIMENTS.md).
//
// On demand means exactly that: there is no pre-generated buffer and
// no a-priori quantity to declare — any number of goroutines can
// each own a Generator (or share a Parallel pool) and draw numbers
// as the computation unfolds, the property the paper's list-ranking
// application exercises.
//
// # Quick start
//
//	g, err := hybridprng.New()
//	if err != nil { ... }
//	x := g.Uint64()      // next random 64-bit value
//	f := g.Float64()     // uniform in [0, 1)
//
// A Generator is deliberately not safe for concurrent use — walkers
// share nothing, so give one to each goroutine (Parallel does this
// for you) exactly like the paper's per-thread walks.
package hybridprng

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/expander"
	"repro/internal/rng"
	"repro/internal/wordbytes"
)

// Feed names accepted by WithFeed.
const (
	FeedGlibc    = "glibc"    // the paper's configuration
	FeedANSIC    = "ansic"    // weaker feed (ablation)
	FeedSplitMix = "splitmix" // stronger feed (ablation)
)

type config struct {
	walkLen     int
	initWalkLen int
	feed        string
	seed        uint64
	seeded      bool
	healthHMin  float64 // 0 = no monitoring
	shards      int     // 0 = auto (NewPool only)
	shardBuffer int     // 0 = default (NewPool only)
	recovery    RecoveryPolicy
	now         func() time.Time                 // nil = time.Now (NewPool only)
	feedWrap    func(int, rng.Source) rng.Source // nil = identity
}

// Option configures New and NewParallel.
type Option func(*config) error

// MaxWalkLen bounds both walk lengths, in the options and in the
// checkpoint decoder alike, so every generator the options accept can
// be restored from its own checkpoint, and a forged blob cannot turn
// every draw into an arbitrarily long walk.
const MaxWalkLen = 1 << 20

// WithWalkLength sets l, the number of expander steps per generated
// number (default 64, the paper's choice; at most 1<<20). Shorter
// walks are faster and weaker; the ablation benches quantify the
// trade.
func WithWalkLength(l int) Option {
	return func(c *config) error {
		if l < 1 || l > MaxWalkLen {
			return fmt.Errorf("hybridprng: walk length %d outside [1, %d]", l, MaxWalkLen)
		}
		c.walkLen = l
		return nil
	}
}

// WithInitWalkLength sets the length of the Algorithm 1 mixing walk
// run at construction (default 64; at most 1<<20).
func WithInitWalkLength(l int) Option {
	return func(c *config) error {
		if l < 0 || l > MaxWalkLen {
			return fmt.Errorf("hybridprng: init walk length %d outside [0, %d]", l, MaxWalkLen)
		}
		c.initWalkLen = l
		return nil
	}
}

// WithFeed selects the feed-bit generator: FeedGlibc (default),
// FeedANSIC or FeedSplitMix.
func WithFeed(name string) Option {
	return func(c *config) error {
		switch name {
		case FeedGlibc, FeedANSIC, FeedSplitMix:
			c.feed = name
			return nil
		default:
			return fmt.Errorf("hybridprng: unknown feed %q", name)
		}
	}
}

// WithSeed fixes the feed seed for reproducible streams. Without it
// the seed comes from the operating system's entropy pool.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		c.seeded = true
		return nil
	}
}

// WithHealthMonitoring wraps the feed with the SP 800-90B continuous
// health tests (repetition count + adaptive proportion), calibrated
// for a feed claiming hMin bits of min-entropy per byte (a pseudo-
// random feed warrants a conservative claim such as 4). The claim
// must lie in [bitsource.HMinFloor, 8]; the floor, about 2.86e-5, is
// the weakest claim whose monitor state a checkpoint can restore.
// Check Generator.HealthErr at consumption boundaries; a tripped
// monitor means the feed broke and the output must not be trusted.
// This is the groundwork for the cryptographic applications the
// paper's conclusion points at.
func WithHealthMonitoring(hMin float64) Option {
	return func(c *config) error {
		if err := bitsource.CheckClaim(hMin); err != nil {
			return fmt.Errorf("hybridprng: %w", err)
		}
		c.healthHMin = hMin
		return nil
	}
}

// WithShards sets the shard count for NewPool (rounded up to the
// next power of two so shard selection is a mask, not a division).
// The default is the next power of two ≥ max(GOMAXPROCS, 16), so the
// batched kernel runs its full sixteen lanes; the default pool's
// stream therefore depends on GOMAXPROCS only above sixteen. Other
// constructors ignore it.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("hybridprng: shard count %d < 1", n)
		}
		if n > maxShards {
			return fmt.Errorf("hybridprng: shard count %d > %d", n, maxShards)
		}
		c.shards = n
		return nil
	}
}

// WithShardBuffer sets the per-shard ring-buffer size in words for
// NewPool (default 256). Larger buffers amortise the shard lock and
// the health check over more draws; smaller ones bound the work
// discarded when a shard's feed monitor trips. Other constructors
// ignore it.
func WithShardBuffer(words int) Option {
	return func(c *config) error {
		if words < 1 {
			return fmt.Errorf("hybridprng: shard buffer %d < 1", words)
		}
		if words > maxShardBuffer {
			return fmt.Errorf("hybridprng: shard buffer %d > %d", words, maxShardBuffer)
		}
		c.shardBuffer = words
		return nil
	}
}

// WithRecovery sets the pool's shard self-healing policy (see
// RecoveryPolicy). Zero-valued fields take the documented defaults,
// so WithRecovery(RecoveryPolicy{QuarantineBase: time.Second}) only
// shortens the first backoff. MaxTrips: 1 retires a shard
// permanently on its first trip. Other constructors ignore it.
func WithRecovery(p RecoveryPolicy) Option {
	return func(c *config) error {
		if err := p.validate(); err != nil {
			return err
		}
		c.recovery = p
		return nil
	}
}

// WithClock injects the time source the pool's quarantine backoff
// reads (default time.Now). Deterministic tests and the chaos
// harness drive recovery through a manual clock; production callers
// never need it.
func WithClock(now func() time.Time) Option {
	return func(c *config) error {
		if now == nil {
			return fmt.Errorf("hybridprng: nil clock")
		}
		c.now = now
		return nil
	}
}

// WithFeedWrapper interposes wrap between each worker's raw feed
// generator and everything above it (the SP 800-90B monitor sees the
// wrapped stream). The chaos harness uses this to inject seeded
// faults below the health tests; wrap is called once per worker with
// the worker index and must return a non-nil source. A pool shard
// that trips reseeds only through a wrapper that exposes
// Unwrap() rng.Source: the reseed peels wrappers off down to the
// typed feed, builds a fresh one and wraps that again; a shard whose
// feed cannot be peeled retires. Wrapped feeds are not
// checkpointable (MarshalBinary reports an error), so the hook is a
// dev/test facility, not a production one.
func WithFeedWrapper(wrap func(worker int, src rng.Source) rng.Source) Option {
	return func(c *config) error {
		if wrap == nil {
			return fmt.Errorf("hybridprng: nil feed wrapper")
		}
		c.feedWrap = wrap
		return nil
	}
}

func buildConfig(opts []Option) (config, error) {
	c := config{walkLen: core.DefaultWalkLen, initWalkLen: core.DefaultInitWalkLen, feed: FeedGlibc}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return c, err
		}
	}
	if !c.seeded {
		c.seed = bitsource.CryptoSeed()
	}
	return c, nil
}

func (c config) feedSource(worker int) rng.Source {
	seed := baselines.Mix64(c.seed + uint64(worker)*0x9E3779B97F4A7C15)
	switch c.feed {
	case FeedANSIC:
		return baselines.NewANSIC(uint32(seed))
	case FeedSplitMix:
		return baselines.NewSplitMix64(seed)
	default:
		return baselines.NewGlibcRand(uint32(seed))
	}
}

// walker builds worker's walker: its feed, the chaos wrapper if any,
// the SP 800-90B monitor when monitoring is on, the bit reader over
// them, then Algorithm 1. The monitor lives only inside the reader;
// monitor finds it there.
func (c config) walker(worker int) (*core.Walker, error) {
	src := c.feedSource(worker)
	if c.feedWrap != nil {
		if src = c.feedWrap(worker, src); src == nil {
			return nil, fmt.Errorf("hybridprng: feed wrapper returned nil for worker %d", worker)
		}
	}
	if c.healthHMin > 0 {
		mon, err := bitsource.NewMonitor(src, c.healthHMin)
		if err != nil {
			return nil, err
		}
		src = mon
	}
	return core.NewWalker(rng.NewBitReader(src), core.Config{WalkLen: c.walkLen, InitWalkLen: c.initWalkLen})
}

// monitor returns the SP 800-90B monitor w's bit reader draws
// through, or nil when w was built without WithHealthMonitoring.
func monitor(w *core.Walker) *bitsource.Monitor {
	mon, _ := w.Bits().Source().(*bitsource.Monitor)
	return mon
}

// Generator is one independent expander walk. Not safe for
// concurrent use; see Parallel or Shared.
type Generator struct {
	w *core.Walker
}

// New creates a Generator and runs the paper's InitializeGenerator
// (Algorithm 1): a random start vertex from 64 feed bits followed by
// the mixing walk.
func New(opts ...Option) (*Generator, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	w, err := c.walker(0)
	if err != nil {
		return nil, err
	}
	return &Generator{w: w}, nil
}

// HealthErr returns the first feed health-test failure, or nil.
// Always nil when WithHealthMonitoring was not requested.
func (g *Generator) HealthErr() error {
	if mon := monitor(g.w); mon != nil {
		return mon.Err()
	}
	return nil
}

// Uint64 returns the next random value — the paper's GetNextRand
// (Algorithm 2).
func (g *Generator) Uint64() uint64 { return g.w.Next() }

// Uint32 returns the top 32 bits of the next value.
func (g *Generator) Uint32() uint32 { return uint32(g.w.Next() >> 32) }

// Float64 returns a uniform value in [0, 1).
func (g *Generator) Float64() float64 { return rng.Float64(g.w) }

// Uint64n returns a uniform value in [0, n); it panics if n is 0.
func (g *Generator) Uint64n(n uint64) uint64 { return rng.Uint64n(g.w, n) }

// Intn returns a uniform value in [0, n); it panics if n ≤ 0.
func (g *Generator) Intn(n int) int {
	if n <= 0 {
		panic("hybridprng: Intn with non-positive n")
	}
	return int(rng.Uint64n(g.w, uint64(n)))
}

// NormFloat64 returns a standard normal variate.
func (g *Generator) NormFloat64() float64 { return rng.NormFloat64(g.w) }

// Fill writes successive values into dst.
func (g *Generator) Fill(dst []uint64) { g.w.Fill(dst) }

// Skip discards the next n values (the stream advances exactly as if
// they had been drawn).
func (g *Generator) Skip(n uint64) { g.w.Skip(n) }

// Read fills p with random bytes (io.Reader): ⌈len(p)/8⌉ words laid
// out little-endian, the last one cut short for a ragged length. It
// always fills the whole slice and never returns an error; partially
// consumed words are discarded between calls, so byte streams from
// separate Read calls of the same total length are NOT bitwise
// identical to one long Read. The whole words come from one Walker.Fill
// — written in place when p can be viewed as words (wordbytes), else
// through a stack block — so a Read of five words or more runs the
// bin-fed walk; only a ragged tail word costs a Next.
func (g *Generator) Read(p []byte) (int, error) {
	nw := len(p) / 8
	if words := wordbytes.Words(p[:nw*8]); words != nil {
		g.w.Fill(words)
	} else {
		var block [256]uint64
		for i := 0; i < nw; {
			ws := block[:min(nw-i, len(block))]
			g.w.Fill(ws)
			for _, v := range ws {
				binary.LittleEndian.PutUint64(p[8*i:], v)
				i++
			}
		}
	}
	if tail := p[nw*8:]; len(tail) > 0 {
		v := g.w.Next()
		for i := range tail {
			tail[i] = byte(v >> (8 * i))
		}
	}
	return len(p), nil
}

// Position exposes the walk's current expander vertex.
func (g *Generator) Position() expander.Vertex { return g.w.Position() }

// Generated returns how many numbers this generator has produced.
func (g *Generator) Generated() uint64 { return g.w.Generated() }

// Shuffle pseudo-randomises the order of n elements using swap, like
// math/rand.Shuffle.
func (g *Generator) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64n(g.w, uint64(i+1)))
		swap(i, j)
	}
}

// mathSource adapts a Generator to math/rand.Source64.
type mathSource struct{ g *Generator }

func (s mathSource) Uint64() uint64  { return s.g.Uint64() }
func (s mathSource) Int63() int64    { return int64(s.g.Uint64() >> 1) }
func (s mathSource) Seed(seed int64) {} // streams are seeded at construction
// MathRandSource returns a math/rand.Source64 view of the generator,
// so it can drive rand.New for the full math/rand distribution
// toolkit.
func (g *Generator) MathRandSource() rand.Source64 { return mathSource{g} }

// Shared wraps a Generator behind a mutex for callers that insist on
// one stream shared across goroutines. Prefer Parallel.
type Shared struct {
	mu sync.Mutex
	g  *Generator
}

// NewShared creates a mutex-guarded generator.
func NewShared(opts ...Option) (*Shared, error) {
	g, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return &Shared{g: g}, nil
}

// Uint64 returns the next value under the lock.
func (s *Shared) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Uint64()
}

// Float64 returns a uniform [0,1) value under the lock.
func (s *Shared) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.Float64()
}

// Parallel is a pool of independent generators, one per worker —
// the library form of the paper's per-thread walks. Fill splits
// batches across workers; Worker hands a private generator to each
// goroutine.
type Parallel struct {
	walkers []*core.Walker
}

// NewParallel creates a pool of `workers` independent generators
// with derived seeds.
func NewParallel(workers int, opts ...Option) (*Parallel, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		return nil, fmt.Errorf("hybridprng: pool size %d < 1", workers)
	}
	p := &Parallel{walkers: make([]*core.Walker, workers)}
	for i := range p.walkers {
		if p.walkers[i], err = c.walker(i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// HealthErr returns the first health failure across the pool's
// workers, or nil.
func (p *Parallel) HealthErr() error {
	for i := range p.walkers {
		if err := p.Worker(i).HealthErr(); err != nil {
			return err
		}
	}
	return nil
}

// Workers returns the pool size.
func (p *Parallel) Workers() int { return len(p.walkers) }

// Worker returns worker i's private generator; hand each goroutine
// its own. The generator's HealthErr reports worker i's own feed
// monitor.
func (p *Parallel) Worker(i int) *Generator { return &Generator{w: p.walkers[i]} }

// Fill writes len(dst) values, sharded across the workers
// concurrently; the result is deterministic for a fixed seed.
func (p *Parallel) Fill(dst []uint64) { core.FillSplit(p.walkers, dst) }

// Generated sums the numbers produced across all workers.
func (p *Parallel) Generated() uint64 {
	var total uint64
	for _, w := range p.walkers {
		total += w.Generated()
	}
	return total
}
