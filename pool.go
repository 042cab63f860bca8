package hybridprng

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wordbytes"
)

// Pool is the serving-layer generator: a sharded, contention-free
// pool of expander walkers sized for many concurrent callers. Where
// Parallel hands each goroutine its own Generator (the paper's
// per-thread model), Pool serves *anonymous* traffic — any goroutine
// may call Uint64 or Fill at any time, which is the paper's
// "on-demand" property pushed up to a service boundary.
//
// Internally each shard owns one walker, whose bit reader holds the
// shard's feed stream and, with WithHealthMonitoring, its SP 800-90B
// health monitor, plus a small ring buffer of pre-generated words. A
// draw picks a shard by advancing an atomic ticket and masking (shard
// counts are powers of two), takes the shard's lock, and serves from
// the ring; the ring is refilled a batch at a time so the lock and the
// health check amortise over ShardBuffer draws. Distinct shards never
// contend with each other.
//
// # Self-healing
//
// A shard whose feed monitor trips is not lost forever; it moves
// through a supervised recovery state machine:
//
//	healthy ──trip──▶ quarantined ──backoff elapsed──▶ probation
//	   ▲                   ▲                               │
//	   │                   └───────monitor trips───────────┤
//	   └───────────────clean probation window──────────────┘
//
// Quarantine discards the shard's buffered words (SP 800-90B says
// output after a failure must not be trusted) and waits out an
// exponential backoff with deterministic jitter. When the backoff
// elapses the shard is reseeded — a fresh feed seed and the full
// Algorithm 1 initialisation (random start vertex plus the mixing
// walk) — and enters probation, where it generates and health-checks
// words that are discarded, never served. A clean probation window
// readmits the shard; a trip during probation re-quarantines it with
// a longer backoff. After RecoveryPolicy.MaxTrips trips the shard is
// retired for real. Recovery work is driven lazily by draw traffic
// (no background goroutine), so an idle pool does no work and a Pool
// needs no Close.
//
// When every shard is out of service, draws fail with
// ErrPoolUnhealthy until a quarantined shard recovers. HealthErr and
// Stats expose the degraded state for /healthz-style probes.
//
// A Pool is checkpointable: MarshalBinary/UnmarshalBinary (state.go)
// capture every shard's walker, monitor, ring residue and recovery
// state (trips, remaining backoff, probation progress) plus the
// ticket counter, so a restored pool resumes the exact streams — a
// snapshot taken mid-recovery recovers along the identical path.
const (
	maxShards      = 1 << 12
	maxShardBuffer = 1 << 20

	// defaultShardBuffer is the ring size in words: big enough that
	// the shard lock is a small fraction of the walk cost, small
	// enough that a tripped shard discards little work.
	defaultShardBuffer = 256

	// directFillThreshold is the Fill size (in words per healthy
	// shard) above which Fill bypasses the rings and writes straight
	// from the walkers into the caller's slice.
	directFillThreshold = 64

	// probationChunk bounds the probation words generated per draw
	// visit, so recovery work never adds more than ~one ring refill
	// of latency to the caller that happens to drive it.
	probationChunk = 512

	// gangScanWindow is how many neighbouring shards a ring refill
	// inspects when assembling a gang (see poolShard.refillRingLocked):
	// wide enough to find MaxBatchLanes-1 drained companions even when
	// some neighbours are busy or full, narrow enough that the scan
	// stays cheap.
	gangScanWindow = 2 * core.MaxBatchLanes

	// maxFillShards caps how many shards one Fill call stripes across.
	// It bounds the stack-allocated lane bookkeeping so the steady
	// bulk-fill path performs zero heap allocations; 64 shards is far
	// past the point where striping wider stops helping.
	maxFillShards = 64
)

// ErrPoolUnhealthy is returned by Pool draws when no shard is
// currently serving — every shard is quarantined, in probation or
// retired: no trustworthy randomness is available right now.
var ErrPoolUnhealthy = errors.New("hybridprng: no pool shard is currently healthy")

// shardState is the recovery state machine's state.
type shardState uint32

const (
	shardHealthy     shardState = iota // serving
	shardQuarantined                   // tripped; waiting out backoff
	shardProbation                     // reseeded; output checked but discarded
	shardRetired                       // permanently out of service
)

func (s shardState) String() string {
	switch s {
	case shardHealthy:
		return "healthy"
	case shardQuarantined:
		return "quarantined"
	case shardProbation:
		return "probation"
	case shardRetired:
		return "retired"
	}
	return fmt.Sprintf("state(%d)", uint32(s))
}

// RecoveryPolicy tunes the pool's shard self-healing. The zero value
// of each field means its default; the zero policy as a whole is the
// default policy.
type RecoveryPolicy struct {
	// QuarantineBase is the backoff before the first reseed attempt
	// (default 30s). Each subsequent trip multiplies the backoff by
	// BackoffFactor (default 2) up to QuarantineMax (default 10m).
	// Both are at most 500h.
	QuarantineBase time.Duration
	BackoffFactor  float64
	QuarantineMax  time.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of
	// its nominal value (default 0.2) so shards tripped together do
	// not reseed in lockstep. The jitter is derived deterministically
	// from the shard's reseed base, so a fixed-seed pool recovers
	// reproducibly.
	JitterFrac float64
	// ProbationWords is the number of reseeded words generated,
	// health-checked and discarded before a shard is readmitted
	// (default 4096, at most 2^20).
	ProbationWords int
	// MaxTrips is the total number of trips a shard is allowed
	// before it is retired for real (default 6, at most 2^31-1); 1
	// retires a shard on its first trip.
	MaxTrips int
}

const (
	defaultQuarantineBase = 30 * time.Second
	defaultBackoffFactor  = 2.0
	defaultQuarantineMax  = 10 * time.Minute
	defaultJitterFrac     = 0.2
	defaultProbationWords = 4096
	defaultMaxTrips       = 6
)

// maxQuarantine, maxProbationWords and maxTrips bound a policy's fields
// so every snapshot decodes: a backoff, the larger of QuarantineBase and
// QuarantineMax jittered by under +100%, stays within 2·maxQuarantine,
// and a trip budget fits a 32-bit host's int.
const (
	maxQuarantine     = 500 * time.Hour
	maxProbationWords = 1 << 20
	maxTrips          = 1<<31 - 1
)

func (p RecoveryPolicy) validate() error {
	if p.QuarantineBase < 0 || p.QuarantineBase > maxQuarantine {
		return fmt.Errorf("hybridprng: quarantine base %v outside [0, %v]", p.QuarantineBase, maxQuarantine)
	}
	if p.QuarantineMax < 0 || p.QuarantineMax > maxQuarantine {
		return fmt.Errorf("hybridprng: quarantine cap %v outside [0, %v]", p.QuarantineMax, maxQuarantine)
	}
	if !(p.BackoffFactor == 0 || p.BackoffFactor >= 1) { // rejects NaN too
		return fmt.Errorf("hybridprng: backoff factor %g < 1", p.BackoffFactor)
	}
	if !(p.JitterFrac >= 0 && p.JitterFrac < 1) { // rejects NaN too
		return fmt.Errorf("hybridprng: jitter fraction %g outside [0, 1)", p.JitterFrac)
	}
	if p.ProbationWords < 0 || p.ProbationWords > maxProbationWords {
		return fmt.Errorf("hybridprng: probation window %d outside [0, %d]", p.ProbationWords, maxProbationWords)
	}
	if p.MaxTrips < 0 || p.MaxTrips > maxTrips {
		return fmt.Errorf("hybridprng: trip budget %d outside [0, %d]", p.MaxTrips, maxTrips)
	}
	return nil
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.QuarantineBase == 0 {
		p.QuarantineBase = defaultQuarantineBase
	}
	if p.BackoffFactor == 0 {
		p.BackoffFactor = defaultBackoffFactor
	}
	if p.QuarantineMax == 0 {
		p.QuarantineMax = defaultQuarantineMax
	}
	if p.QuarantineMax < p.QuarantineBase {
		p.QuarantineMax = p.QuarantineBase
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = defaultJitterFrac
	}
	if p.ProbationWords == 0 {
		p.ProbationWords = defaultProbationWords
	}
	if p.MaxTrips == 0 {
		p.MaxTrips = defaultMaxTrips
	}
	return p
}

// backoff returns the quarantine duration after the trips-th trip.
// The jitter is a pure function of (seed, trips), so recovery
// timelines are reproducible for a fixed-seed pool.
func (p RecoveryPolicy) backoff(trips uint32, seed uint64) time.Duration {
	d := float64(p.QuarantineBase)
	for i := uint32(1); i < trips && d < float64(p.QuarantineMax); i++ {
		d *= p.BackoffFactor
	}
	if d > float64(p.QuarantineMax) {
		d = float64(p.QuarantineMax)
	}
	if p.JitterFrac > 0 {
		u := float64(baselines.Mix64(seed^uint64(trips)*0x9E3779B97F4A7C15)) / (1 << 64)
		d *= 1 + p.JitterFrac*(2*u-1)
	}
	return time.Duration(d)
}

// Pool is safe for concurrent use by any number of goroutines.
type Pool struct {
	shards  []*poolShard
	mask    uint64
	tickets atomic.Uint64
	policy  RecoveryPolicy
	now     func() time.Time

	tripEvents atomic.Uint64 // cumulative health trips
	recoveries atomic.Uint64 // shards readmitted from probation
}

// poolShard is one walker behind a lock with a ring of pre-generated
// words. state and err are atomic so the hot path of *other* shards
// and the health probes never take this shard's lock. idx and until
// are written only under mu but are atomic too, so Stats reads them
// without the lock: a scrape holding a shard's mu would make a
// concurrent gang refill's TryLock skip that shard, and a later fill
// would then serve different words.
type poolShard struct {
	mu    sync.Mutex
	w     *core.Walker // its bit reader holds the health monitor, if any
	buf   []uint64
	idx   atomic.Int64 // next unread index in buf; len(buf) = empty
	err   atomic.Pointer[bitsource.HealthError]
	state atomic.Uint32 // shardState

	draws   atomic.Uint64 // words served to callers
	refills atomic.Uint64 // ring refills performed
	trips   atomic.Uint32 // health trips so far

	until    atomic.Pointer[time.Time] // quarantine deadline; written under mu
	probLeft int                       // probation words still to discard; guarded by mu

	pool       *Pool
	index      int
	reseedBase uint64                           // deterministic reseed/jitter seed
	wrap       func(int, rng.Source) rng.Source // feed wrapper (chaos); nil normally
}

// NewPool builds a sharded pool. The shard count is rounded up to a
// power of two. Without WithShards it is the next power of two ≥
// max(GOMAXPROCS, core.MaxBatchLanes): at least sixteen shards even on
// a small host, so a bulk Fill and a gang refill each sweep a full
// sixteen-lane lockstep group instead of falling back to the scalar
// walk. Each shard's feed seed is derived from the pool seed and the
// shard index exactly as NewParallel derives worker seeds, so a Pool
// and a Parallel with the same options own the same streams.
func NewPool(opts ...Option) (*Pool, error) {
	c, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	n := c.shards
	if n == 0 {
		n = max(runtime.GOMAXPROCS(0), core.MaxBatchLanes)
	}
	n = nextPow2(n)
	bufWords := c.shardBuffer
	if bufWords == 0 {
		bufWords = defaultShardBuffer
	}
	p := &Pool{
		shards: make([]*poolShard, n),
		mask:   uint64(n - 1),
		policy: c.recovery.withDefaults(),
		now:    c.now,
	}
	if p.now == nil {
		p.now = time.Now //lint:wallclock default when WithClock was not used; the injection point IS WithClock
	}
	for i := range p.shards {
		w, err := c.walker(i)
		if err != nil {
			return nil, fmt.Errorf("hybridprng: pool shard %d: %w", i, err)
		}
		s := &poolShard{
			w: w, buf: make([]uint64, bufWords),
			pool: p, index: i,
			reseedBase: reseedBase(c.seed, i),
			wrap:       c.feedWrap,
		}
		s.drain()
		p.shards[i] = s
	}
	return p, nil
}

// reseedBase derives the per-shard seed that parameterises recovery
// reseeds and backoff jitter. It is a pure function of the pool seed
// and the shard index so fixed-seed pools recover reproducibly.
func reseedBase(poolSeed uint64, shard int) uint64 {
	return baselines.Mix64(poolSeed ^ (uint64(shard)+1)*0x9E3779B97F4A7C15 ^ 0x517CC1B727220A95)
}

// SetClock replaces the time source the quarantine backoff reads
// (default time.Now; see WithClock). It exists so a pool restored
// from a snapshot can be driven by a manual clock in tests and in
// the chaos harness; call it before serving traffic — it is not
// synchronised with concurrent draws.
func (p *Pool) SetClock(now func() time.Time) {
	if now != nil {
		p.now = now
	}
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	if n > maxShards {
		return maxShards
	}
	return 1 << bits.Len(uint(n-1))
}

// tripLocked records a health failure and moves the shard to
// quarantined (or retired, when the trip budget is spent). Must be
// called with s.mu held; the error is published before the state so
// concurrent healthErr readers that observe the trip always see the
// cause. No-op unless the shard is currently healthy or in probation.
func (s *poolShard) tripLocked(e *bitsource.HealthError) {
	switch shardState(s.state.Load()) {
	case shardHealthy, shardProbation:
	default:
		return
	}
	s.err.Store(e)
	s.drain() // discard untrusted residue
	trips := s.trips.Add(1)
	s.pool.tripEvents.Add(1)
	pol := s.pool.policy
	if int(trips) >= pol.MaxTrips {
		s.state.Store(uint32(shardRetired))
		return
	}
	until := s.pool.now().Add(pol.backoff(trips, s.reseedBase))
	s.until.Store(&until)
	s.state.Store(uint32(shardQuarantined))
}

// retireLocked takes the shard out of service permanently (reseed
// machinery failures, not health trips).
func (s *poolShard) retireLocked(e *bitsource.HealthError) {
	s.err.Store(e)
	s.drain()
	s.state.Store(uint32(shardRetired))
}

// monTripped reports (and latches) a monitor failure after a refill.
// Must be called with s.mu held.
func (s *poolShard) monTripped() bool {
	mon := monitor(s.w)
	if mon == nil || !mon.Tripped() {
		return false
	}
	if he, ok := mon.Err().(*bitsource.HealthError); ok {
		s.tripLocked(he)
	} else {
		s.tripLocked(&bitsource.HealthError{Test: "monitor", Detail: mon.Err().Error()})
	}
	return true
}

// advance drives the shard's recovery state machine by one bounded
// step: a quarantined shard past its deadline is reseeded into
// probation; a probation shard generates and discards (at most) one
// probation chunk. Called from draw paths when they encounter a
// non-serving shard; TryLock keeps concurrent callers from convoying
// on a recovering shard.
func (s *poolShard) advance() {
	switch shardState(s.state.Load()) {
	case shardQuarantined, shardProbation:
	default:
		return
	}
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	switch shardState(s.state.Load()) {
	case shardQuarantined:
		if !s.pool.now().Before(*s.until.Load()) {
			s.reseedLocked()
		}
	case shardProbation:
		s.probeLocked()
	}
}

// reseedLocked rebuilds the shard's generator stack from a fresh,
// deterministically derived feed seed — new feed, the old walker's
// monitor re-armed over it (same calibration, clean counters) and the
// full Algorithm 1 initialisation walk — and moves the shard to
// probation. Must be called with s.mu held.
func (s *poolShard) reseedLocked() {
	seed := baselines.Mix64(s.reseedBase + uint64(s.trips.Load())*0x9E3779B97F4A7C15)
	old := monitor(s.w)
	base := s.w.Bits().Source()
	if old != nil {
		base = old.Source()
	}
	// Peel fault-injection wrappers (chaos) down to the typed feed.
	for {
		u, ok := base.(interface{ Unwrap() rng.Source })
		if !ok {
			break
		}
		base = u.Unwrap()
	}
	fresh, err := freshFeedLike(base, seed)
	if err != nil {
		s.retireLocked(&bitsource.HealthError{Test: "reseed", Detail: err.Error()})
		return
	}
	if s.wrap != nil {
		if wrapped := s.wrap(s.index, fresh); wrapped != nil {
			fresh = wrapped
		}
	}
	if old != nil {
		if fresh, err = old.Rearm(fresh); err != nil {
			s.retireLocked(&bitsource.HealthError{Test: "reseed", Detail: err.Error()})
			return
		}
	}
	w, err := core.NewWalker(rng.NewBitReader(fresh), s.w.Config())
	if err != nil {
		s.retireLocked(&bitsource.HealthError{Test: "reseed", Detail: err.Error()})
		return
	}
	s.w = w
	s.probLeft = s.pool.policy.ProbationWords
	s.state.Store(uint32(shardProbation))
	// Algorithm 1's initialisation walk already pulled feed bits
	// through the re-armed monitor; a persistent fault trips here and
	// sends the shard straight back to quarantine.
	s.monTripped()
}

// freshFeedLike builds a new instance of the same feed generator
// type as old, seeded with seed.
func freshFeedLike(old rng.Source, seed uint64) (rng.Source, error) {
	switch old.(type) {
	case *baselines.GlibcRand:
		return baselines.NewGlibcRand(uint32(seed)), nil
	case *baselines.ANSIC:
		return baselines.NewANSIC(uint32(seed)), nil
	case *baselines.SplitMix64:
		return baselines.NewSplitMix64(seed), nil
	}
	return nil, fmt.Errorf("hybridprng: feed %T cannot be reseeded", old)
}

// probeLocked runs one probation step: generate up to probationChunk
// words through the reseeded stack, health-check and discard them.
// An empty probation balance readmits the shard. Must be called with
// s.mu held.
func (s *poolShard) probeLocked() {
	n := s.probLeft
	if n > probationChunk {
		n = probationChunk
	}
	for left := n; left > 0; {
		k := left
		if k > len(s.buf) {
			k = len(s.buf)
		}
		s.w.Fill(s.buf[:k]) // scratch: the ring is empty during probation
		left -= k
	}
	if s.monTripped() {
		return
	}
	s.probLeft -= n
	if s.probLeft <= 0 {
		s.err.Store(nil)
		s.state.Store(uint32(shardHealthy))
		s.pool.recoveries.Add(1)
	}
}

// next serves one word from the ring, refilling when empty. ok is
// false when the shard is not serving (or just tripped).
func (s *poolShard) next() (v uint64, ok bool) {
	if shardState(s.state.Load()) != shardHealthy {
		return 0, false
	}
	s.mu.Lock()
	if shardState(s.state.Load()) != shardHealthy {
		s.mu.Unlock()
		return 0, false
	}
	i := int(s.idx.Load())
	if i == len(s.buf) {
		s.refillRingLocked()
		if s.monTripped() {
			s.mu.Unlock()
			return 0, false
		}
		i = 0
	}
	v = s.buf[i]
	s.idx.Store(int64(i + 1))
	s.mu.Unlock()
	s.draws.Add(1)
	return v, true
}

// refillRingLocked refills s's empty ring and, in the same batched
// lockstep sweep (core.FillBatch), opportunistically tops up the
// rings of neighbouring healthy shards that have drained at least
// half — a "gang refill". Under uniform ticket traffic all rings
// drain at the same rate, so the shard that happens to empty first
// pays one batched sweep that refills the whole neighbourhood at
// batched-kernel throughput instead of each shard paying a scalar
// refill of its own.
//
// Stream contents are unaffected: a ring always holds the next words
// of its own walker's stream, so topping a ring up early changes only
// *when* the words are generated, never which words any caller
// observes. Gang members are acquired with TryLock while s.mu is
// held, so the refill can never deadlock and never convoys behind a
// busy neighbour.
//
// Must be called with s.mu held and s's ring empty. The caller
// remains responsible for s's own monTripped check and idx reset;
// gang members are checked, published and unlocked here.
func (s *poolShard) refillRingLocked() {
	var (
		ws   [core.MaxBatchLanes]*core.Walker
		segs [core.MaxBatchLanes][]uint64
		gang [core.MaxBatchLanes]*poolShard
	)
	ws[0], segs[0] = s.w, s.buf
	n := 1
	p := s.pool
	if scan := uint64(gangScanWindow); p.mask > 0 {
		if scan > p.mask {
			scan = p.mask // all other shards; off ≤ mask never aliases s
		}
		for off := uint64(1); off <= scan && n < core.MaxBatchLanes; off++ {
			t := p.shards[(uint64(s.index)+off)&p.mask]
			if shardState(t.state.Load()) != shardHealthy || !t.mu.TryLock() {
				continue
			}
			if shardState(t.state.Load()) != shardHealthy || t.buffered()*2 > len(t.buf) {
				t.mu.Unlock()
				continue
			}
			// Compact the unread residue to the front; the batched
			// sweep appends the walker's next words right after it, so
			// the ring still serves the stream in order.
			residue := copy(t.buf, t.buf[t.idx.Load():])
			ws[n], segs[n], gang[n] = t.w, t.buf[residue:], t
			n++
		}
	}
	core.FillBatch(ws[:n], segs[:n])
	s.refills.Add(1)
	for i := 1; i < n; i++ {
		t := gang[i]
		t.refills.Add(1)
		if !t.monTripped() { // tripLocked discards the untrusted ring
			t.idx.Store(0)
		}
		t.mu.Unlock()
	}
}

// fill writes len(dst) words straight from the walker (bypassing the
// ring, whose buffered words stay put for Uint64 callers). ok is
// false when the shard is not serving — including a trip detected
// *after* generating, in which case dst holds untrusted words the
// caller must overwrite or zero.
func (s *poolShard) fill(dst []uint64) bool {
	if shardState(s.state.Load()) != shardHealthy {
		return false
	}
	s.mu.Lock()
	if shardState(s.state.Load()) != shardHealthy {
		s.mu.Unlock()
		return false
	}
	s.w.Fill(dst)
	if s.monTripped() {
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	s.draws.Add(uint64(len(dst)))
	return true
}

// healthErr returns why the shard is out of service, or nil.
func (s *poolShard) healthErr() error {
	if shardState(s.state.Load()) == shardHealthy {
		return nil
	}
	if e := s.err.Load(); e != nil {
		return e
	}
	return nil
}

// buffered is the number of unread words in the ring. Stats reads it
// without mu; every other caller holds mu.
func (s *poolShard) buffered() int { return len(s.buf) - int(s.idx.Load()) }

// drain empties the ring. Must be called with s.mu held (or before the
// shard is shared).
func (s *poolShard) drain() { s.idx.Store(int64(len(s.buf))) }

// retryIn is the quarantine backoff left at now: zero unless the shard
// is quarantined. It reads no mu-guarded state, so Stats may call it
// while another goroutine holds s.mu.
func (s *poolShard) retryIn(now time.Time) time.Duration {
	if shardState(s.state.Load()) != shardQuarantined {
		return 0
	}
	if u := s.until.Load(); u != nil {
		if d := u.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// Uint64 returns the next word from a healthy shard. Each call lands
// on a different shard (atomic ticket & mask), so concurrent callers
// spread across the pool instead of convoying on one lock. A draw
// that lands on a recovering shard advances its state machine one
// bounded step and falls through to the next healthy shard; only a
// pool with no serving shard errors.
func (p *Pool) Uint64() (uint64, error) {
	t := p.tickets.Add(1)
	for i := uint64(0); i <= p.mask; i++ {
		s := p.shards[(t+i)&p.mask]
		if v, ok := s.next(); ok {
			return v, nil
		}
		s.advance()
	}
	return 0, ErrPoolUnhealthy
}

// Fill writes len(dst) words, splitting large requests across
// healthy shards and bypassing the rings: the participating shards
// are swept by the batched lockstep kernel (core.FillBatch) in
// groups of up to MaxBatchLanes, so a bulk fill costs one pipelined
// sweep per group rather than a scalar walk per shard. Small
// requests are served from the shard rings. The steady large path
// performs no heap allocations. Any shard that trips mid-fill has
// its segment regenerated by a healthy shard, so on a nil return
// every word in dst is trustworthy. On a non-nil error dst is zeroed
// in full — callers can never consume stale or untrusted buffer
// contents as randomness.
func (p *Pool) Fill(dst []uint64) error {
	if len(dst) == 0 {
		return nil
	}
	p.sweep()
	if len(dst) <= directFillThreshold {
		for i := range dst {
			v, err := p.Uint64()
			if err != nil {
				zeroWords(dst)
				return err
			}
			dst[i] = v
		}
		return nil
	}
	// Stripe the slice across healthy shards (ascending index, capped
	// at maxFillShards so the lane bookkeeping lives on the stack);
	// don't cut chunks below the direct-fill threshold or per-lane
	// overhead dominates.
	var laneArr [maxFillShards]*poolShard
	lanes := laneArr[:0]
	for _, s := range p.shards {
		if shardState(s.state.Load()) == shardHealthy {
			lanes = append(lanes, s)
			if len(lanes) == maxFillShards {
				break
			}
		}
	}
	if len(lanes) == 0 {
		zeroWords(dst)
		return ErrPoolUnhealthy
	}
	n := len(lanes)
	if max := (len(dst) + directFillThreshold - 1) / directFillThreshold; n > max {
		n = max
	}
	chunk := (len(dst) + n - 1) / n
	var segArr [maxFillShards][]uint64
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
		segArr[used] = dst[lo:hi]
		used++
	}
	// One batched sweep per group of MaxBatchLanes consecutive lanes.
	// Groups run serially on a single-core host (no goroutine or
	// allocation overhead — the lane bookkeeping above never escapes);
	// with spare cores each group gets its own goroutine, matching the
	// old one-goroutine-per-segment spread.
	var failed [][]uint64
	if used <= core.MaxBatchLanes || runtime.GOMAXPROCS(0) == 1 {
		for g := 0; g < used; g += core.MaxBatchLanes {
			hi := g + core.MaxBatchLanes
			if hi > used {
				hi = used
			}
			failed = append(failed, fillShardGroup(lanes[g:hi], segArr[g:hi])...)
		}
	} else {
		failed = fillShardGroupsParallel(lanes[:used], segArr[:used])
	}
	// Regenerate segments whose shard tripped or turned unhealthy.
	// Trips are rare, so serial retry is fine; each pass either
	// succeeds or shrinks the healthy set, so this terminates.
	for _, seg := range failed {
		if err := p.fillSegment(seg); err != nil {
			zeroWords(dst)
			return err
		}
	}
	return nil
}

// fillShardGroupsParallel runs one goroutine per MaxBatchLanes group
// of lanes. It copies the lane bookkeeping to the heap itself, so
// Fill's stack arrays never escape and the (far more common) serial
// path stays allocation-free.
func fillShardGroupsParallel(lanes []*poolShard, segs [][]uint64) [][]uint64 {
	ls := append([]*poolShard(nil), lanes...)
	ss := append([][]uint64(nil), segs...)
	var wg sync.WaitGroup
	var failedMu sync.Mutex
	var failed [][]uint64
	for g := 0; g < len(ls); g += core.MaxBatchLanes {
		hi := g + core.MaxBatchLanes
		if hi > len(ls) {
			hi = len(ls)
		}
		wg.Add(1)
		go func(ss []*poolShard, segs [][]uint64) {
			defer wg.Done()
			if f := fillShardGroup(ss, segs); len(f) > 0 {
				failedMu.Lock()
				failed = append(failed, f...)
				failedMu.Unlock()
			}
		}(ls[g:hi], ss[g:hi])
	}
	wg.Wait()
	return failed
}

// fillShardGroup locks up to MaxBatchLanes shards (in ascending
// index order — every Fill group locks ascending, so concurrent
// bulk fills cannot deadlock), sweeps their segments with the
// batched kernel, and returns the segments that must be regenerated
// because their shard was no longer healthy or tripped mid-sweep.
// The happy path allocates nothing.
func fillShardGroup(shards []*poolShard, segs [][]uint64) (failed [][]uint64) {
	var (
		ws     [core.MaxBatchLanes]*core.Walker
		ds     [core.MaxBatchLanes][]uint64
		locked [core.MaxBatchLanes]*poolShard
	)
	n := 0
	for i, s := range shards {
		//lint:ignore lockorder ascending shard-index order: every group sorts before locking, so sweeps can never meet in opposite orders
		s.mu.Lock()
		if shardState(s.state.Load()) != shardHealthy {
			s.mu.Unlock()
			failed = append(failed, segs[i])
			continue
		}
		ws[n], ds[n], locked[n] = s.w, segs[i], s
		n++
	}
	core.FillBatch(ws[:n], ds[:n])
	for i := 0; i < n; i++ {
		s := locked[i]
		tripped := s.monTripped()
		s.mu.Unlock()
		if tripped {
			// The lane's words came through a feed that failed its
			// health tests; hand the segment back for regeneration.
			failed = append(failed, ds[i])
		} else {
			s.draws.Add(uint64(len(ds[i])))
		}
	}
	return failed
}

func zeroWords(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

func (p *Pool) fillSegment(seg []uint64) error {
	for {
		healthy := p.healthyShards()
		if len(healthy) == 0 {
			return ErrPoolUnhealthy
		}
		for _, s := range healthy {
			if s.fill(seg) {
				return nil
			}
		}
	}
}

// Read fills b exactly as FillBytes(b) does, so a Pool can stand
// behind io.Reader plumbing. It draws ⌈len(b)/8⌉ words. On error it
// returns 0 with b zeroed, so no stale buffer contents can be
// mistaken for output.
func (p *Pool) Read(b []byte) (int, error) {
	if err := p.FillBytes(b); err != nil {
		zeroBytes(b)
		return 0, err
	}
	return len(b), nil
}

// FillBytes fills b with random bytes: one Fill of len(b)/8 words,
// laid out little-endian, then for a ragged length one more word whose
// low-order bytes end the buffer. The bytes depend only on len(b) and
// the pool's state, never on b's alignment or the host's byte order.
// On little-endian hosts an 8-byte-aligned b is filled in place with
// no copy and no allocation — the path the server's /bytes handler
// rides; otherwise the words go through a reused scratch block and
// are encoded into b. Read serves the same bytes. On a non-nil error
// b is zeroed in full, so a reused response buffer can never leak a
// previous response's bytes through a failed fill.
func (p *Pool) FillBytes(b []byte) error {
	nw := len(b) / 8
	words := wordbytes.Words(b[:nw*8])
	inPlace := words != nil
	if !inPlace {
		fillScratch.Lock()
		if k := len(fillScratch.free); k > 0 {
			words, fillScratch.free = fillScratch.free[k-1], fillScratch.free[:k-1]
		}
		fillScratch.Unlock()
		if cap(words) < nw {
			words = make([]uint64, nw)
		}
		words = words[:nw]
		defer func() {
			fillScratch.Lock()
			fillScratch.free = append(fillScratch.free, words)
			fillScratch.Unlock()
		}()
	}
	if err := p.Fill(words); err != nil {
		zeroBytes(b)
		return err
	}
	if !inPlace {
		for i, v := range words {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
	}
	if tail := b[nw*8:]; len(tail) > 0 {
		var one [1]uint64
		if err := p.Fill(one[:]); err != nil {
			zeroBytes(b)
			return err
		}
		for i := range tail {
			tail[i] = byte(one[0] >> (8 * i))
		}
	}
	return nil
}

// fillScratch keeps the word blocks FillBytes encodes from when it
// cannot fill b in place, as many as such fills ever ran at once. A
// sync.Pool would not do: under the race detector it drops a quarter
// of its Puts, so the fallback's zero-allocation test would fail in
// the race job (core's binFree keeps its bins the same way).
var fillScratch struct {
	sync.Mutex
	free [][]uint64
}

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// sweep advances every recovering shard's state machine one bounded
// step. Cheap when nothing is recovering (one atomic load per
// shard); called from Fill so recovery makes progress under batch
// traffic even when tickets never land on the sick shard.
func (p *Pool) sweep() {
	for _, s := range p.shards {
		s.advance()
	}
}

func (p *Pool) healthyShards() []*poolShard {
	out := make([]*poolShard, 0, len(p.shards))
	for _, s := range p.shards {
		if shardState(s.state.Load()) == shardHealthy {
			out = append(out, s)
		}
	}
	return out
}

// Shards returns the shard count (always a power of two).
func (p *Pool) Shards() int { return len(p.shards) }

// ShardFill writes len(dst) words drawn from shard i alone — the
// audit probe the cross-stream battery (internal/crossstream) uses to
// treat each shard as its own stream. Unlike Fill, nothing is striped
// across shards and no failover happens: if shard i is not serving,
// dst is zeroed and the shard's health error is returned. The ring's
// buffered words stay put for Uint64 callers; ShardFill draws
// straight from the walker, so it observes the same stream Fill-style
// bulk callers would.
func (p *Pool) ShardFill(i int, dst []uint64) error {
	if i < 0 || i >= len(p.shards) {
		zeroWords(dst)
		return fmt.Errorf("hybridprng: shard %d outside [0, %d)", i, len(p.shards))
	}
	s := p.shards[i]
	if s.fill(dst) {
		return nil
	}
	zeroWords(dst)
	if err := s.healthErr(); err != nil {
		return fmt.Errorf("hybridprng: shard %d not serving: %w", i, err)
	}
	return fmt.Errorf("hybridprng: shard %d not serving", i)
}

// Health cheaply reports how many shards are currently serving out of
// the total — one atomic load per shard, no locks — so per-request
// paths (the server stamps X-Pool-Degraded on every draw response)
// can consult pool health without paying for a full Stats snapshot.
func (p *Pool) Health() (healthy, total int) {
	for _, s := range p.shards {
		if shardState(s.state.Load()) == shardHealthy {
			healthy++
		}
	}
	return healthy, len(p.shards)
}

// HealthErr returns the first out-of-service shard's failure, or nil
// while every shard is healthy. A non-nil result with healthy shards
// remaining means the pool is degraded but still serving; Stats
// distinguishes the two.
func (p *Pool) HealthErr() error {
	for _, s := range p.shards {
		if err := s.healthErr(); err != nil {
			return err
		}
	}
	return nil
}

// InjectFault trips shard i as if its feed health monitor had failed
// — the fault-injection hook behind operational drills and the
// /healthz degradation tests. The shard enters quarantine and
// recovers through the normal state machine (or is retired when
// recovery is disabled or its trip budget is spent). It works with
// or without WithHealthMonitoring. Injecting a fault into a shard
// already quarantined or retired is a no-op.
func (p *Pool) InjectFault(i int) error {
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("hybridprng: shard %d outside [0, %d)", i, len(p.shards))
	}
	s := p.shards[i]
	s.mu.Lock()
	if mon := monitor(s.w); mon != nil { // a reseed swaps s.w under s.mu
		mon.ForceTrip("fault injection")
		s.monTripped()
	} else {
		s.tripLocked(&bitsource.HealthError{Test: "forced", Detail: "fault injection"})
	}
	s.mu.Unlock()
	return nil
}

// Generated sums the words produced by the shard walkers (including
// words still buffered in rings and words discarded by trips or
// probation, which is why Generated ≥ Stats().Draws).
func (p *Pool) Generated() uint64 {
	var total uint64
	for _, s := range p.shards {
		s.mu.Lock()
		total += s.w.Generated()
		s.mu.Unlock()
	}
	return total
}

// ShardStats describes one shard for monitoring.
type ShardStats struct {
	Draws    uint64        // words served to callers
	Refills  uint64        // ring refills
	Buffered int           // unread words in the ring
	State    string        // healthy / quarantined / probation / retired
	Tripped  bool          // state != healthy
	Trips    uint32        // health trips so far
	RetryIn  time.Duration // remaining quarantine backoff (0 unless quarantined)
	Failure  string        // last failure; empty while healthy
}

// PoolStats is a point-in-time snapshot for /metrics-style export.
type PoolStats struct {
	Shards      int
	Healthy     int
	Quarantined int
	Probation   int
	Retired     int
	BufferWords int    // ring capacity per shard
	Draws       uint64 // total words served
	Refills     uint64 // total ring refills
	HealthTrips uint64 // cumulative health-trip events
	Recoveries  uint64 // shards readmitted after probation
	PerShard    []ShardStats
}

// Stats snapshots the pool. Safe to call concurrently with draws, and
// it takes no lock: every field it reads is atomic, so a scrape never
// delays a draw or changes which shards a gang refill picks up.
func (p *Pool) Stats() PoolStats {
	now := p.now()
	st := PoolStats{
		Shards:      len(p.shards),
		BufferWords: len(p.shards[0].buf),
		HealthTrips: p.tripEvents.Load(),
		Recoveries:  p.recoveries.Load(),
		PerShard:    make([]ShardStats, len(p.shards)),
	}
	for i, s := range p.shards {
		state := shardState(s.state.Load())
		ss := ShardStats{
			Draws:    s.draws.Load(),
			Refills:  s.refills.Load(),
			Buffered: s.buffered(),
			State:    state.String(),
			Tripped:  state != shardHealthy,
			Trips:    s.trips.Load(),
			RetryIn:  s.retryIn(now),
		}
		if err := s.healthErr(); err != nil {
			ss.Failure = err.Error()
		}
		st.Draws += ss.Draws
		st.Refills += ss.Refills
		switch state {
		case shardHealthy:
			st.Healthy++
		case shardQuarantined:
			st.Quarantined++
		case shardProbation:
			st.Probation++
		case shardRetired:
			st.Retired++
		}
		st.PerShard[i] = ss
	}
	return st
}
