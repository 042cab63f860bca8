// Package client is the consumer half of the paper's pipeline: a
// production Go SDK for randd that reproduces the TRANSFER/GENERATE
// overlap across the network.
//
// The paper's central trick (§ Algorithm 2) is that the three work
// units — FEED, TRANSFER, GENERATE — run concurrently, so the
// consumer of random bits never stalls waiting for the producer.
// randd reproduces FEED and GENERATE server-side; this package
// reproduces TRANSFER: a double-buffered prefetch ring keeps the
// *next* block of /bytes in flight while the caller drains the
// current one, so Uint64 and Read are non-blocking in steady state —
// exactly the role the async CPU→GPU copy plays in the paper, with
// HTTP standing in for the PCIe link.
//
//	cl, err := client.New(client.Options{
//	        Endpoints: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"},
//	})
//	defer cl.Close()
//	v, err := cl.Uint64()        // served from the prefetch ring
//	n, err := cl.Read(buf)       // io.Reader
//	r := cl.Rand()               // *math/rand/v2.Rand
//	sub, err := cl.Substream("tenant-a") // per-tenant derived stream
//
// # Prefetch ring
//
// A background refill goroutine fetches fixed blocks of /bytes and
// hands them to the drain side through a one-deep channel: while the
// caller drains block k, block k+1 sits ready and block k+2 is on
// the wire. Block size adapts to the observed drain rate — a caller
// that outruns the network grows the block (fewer, larger transfers,
// mirroring the paper's block-size sweep towards its sweet spot); a
// slow caller shrinks it (less buffered randomness going stale).
// Words are always decoded from 8 contiguous bytes of a single
// server response, so a draw can never return a torn word stitched
// across two transfers, even when a response arrives truncated.
//
// # Failover
//
// Options.Endpoints names a fleet of interchangeable randd servers.
// The client tracks per-endpoint health passively (request outcomes,
// the X-Pool-Degraded response header) and actively (a /healthz
// probe before readmitting a previously failed endpoint), retries
// with exponential backoff and deterministic jitter, and honours
// Retry-After on 429 sheds — a shed server is never hammered. When
// an endpoint dies mid-stream the refill goroutine cuts over to the
// next healthy one; the draw side keeps serving from the ring and,
// in the common case, never observes the failure.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/substream"
)

// Defaults for Options fields left zero.
const (
	DefaultBlockWords     = 8192
	DefaultMinBlockWords  = 512
	DefaultMaxBlockWords  = 1 << 18
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxStall       = 30 * time.Second
	DefaultBackoffBase    = 250 * time.Millisecond
	DefaultBackoffMax     = 15 * time.Second
	DefaultJitterFrac     = 0.2
	DefaultProbeTimeout   = 2 * time.Second
)

// ErrClosed is returned by draws on a Client whose Close has been
// called.
var ErrClosed = errors.New("client: closed")

// Options configures a Client. Endpoints is required; every other
// zero field takes its default.
type Options struct {
	// Endpoints is the fleet of randd base URLs
	// ("http://host:port"); at least one is required. All endpoints
	// are interchangeable — the client draws from whichever is
	// healthy.
	Endpoints []string

	// BlockWords is the initial prefetch block size in 64-bit words;
	// the adaptive sizing then moves it within
	// [MinBlockWords, MaxBlockWords]. Setting Min = Max pins the
	// block size.
	BlockWords    int
	MinBlockWords int
	MaxBlockWords int

	// RequestTimeout bounds a single block fetch.
	RequestTimeout time.Duration
	// MaxStall bounds how long a draw may block on an empty ring
	// while every endpoint is failing before the draw returns the
	// underlying error. The refill goroutine keeps retrying in the
	// background; once a fetch succeeds, draws recover.
	MaxStall time.Duration

	// BackoffBase/BackoffMax shape the per-endpoint exponential
	// backoff after a failure; JitterFrac spreads each backoff by
	// ±JitterFrac deterministically (derived from Seed and the
	// endpoint index), so a fleet of clients does not retry in
	// lockstep yet each client is reproducible.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	JitterFrac  float64
	// Seed parameterises the deterministic jitter.
	Seed uint64

	// Clock overrides the time source used for backoff scheduling,
	// fetch deadlines and stats timestamps (nil: the wall clock).
	// Injecting a deterministic clock makes failover timelines
	// reproducible in tests — the client-side mirror of
	// hybridprng.WithClock.
	Clock func() time.Time

	// HTTPClient overrides the transport (nil: a dedicated client
	// with sane connection reuse). Its Timeout is ignored; the
	// per-request context carries RequestTimeout.
	HTTPClient *http.Client

	// after pairs with Clock as the wait primitive. Unexported:
	// only this package's tests can drive waits from a fake clock;
	// production waits always ride the real timer.
	after func(time.Duration) <-chan time.Time
}

func (o Options) withDefaults() (Options, error) {
	if len(o.Endpoints) == 0 {
		return o, errors.New("client: no endpoints configured")
	}
	if o.BlockWords == 0 {
		o.BlockWords = DefaultBlockWords
	}
	if o.MinBlockWords == 0 {
		o.MinBlockWords = DefaultMinBlockWords
	}
	if o.MaxBlockWords == 0 {
		o.MaxBlockWords = DefaultMaxBlockWords
	}
	if o.MinBlockWords > o.MaxBlockWords {
		return o, fmt.Errorf("client: MinBlockWords %d > MaxBlockWords %d", o.MinBlockWords, o.MaxBlockWords)
	}
	if o.BlockWords < o.MinBlockWords {
		o.BlockWords = o.MinBlockWords
	}
	if o.BlockWords > o.MaxBlockWords {
		o.BlockWords = o.MaxBlockWords
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxStall == 0 {
		o.MaxStall = DefaultMaxStall
	}
	if o.BackoffBase == 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax == 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.BackoffMax < o.BackoffBase {
		o.BackoffMax = o.BackoffBase
	}
	if o.JitterFrac == 0 {
		o.JitterFrac = DefaultJitterFrac
	}
	if o.JitterFrac < 0 || o.JitterFrac >= 1 {
		return o, fmt.Errorf("client: jitter fraction %g outside [0, 1)", o.JitterFrac)
	}
	return o, nil
}

// Client is a failover-aware, prefetching randd consumer. It is safe
// for concurrent use; concurrent callers share one prefetch ring.
// Create with New and release with Close.
type Client struct {
	opts Options
	http *http.Client
	eps  *endpointSet

	// drawPath is the server route this client's ring drains:
	// "/bytes" for the shared pool, "/v1/stream/{key}/bytes" for a
	// Substream handle. Fixed at construction.
	drawPath string

	// parent is non-nil on a Substream handle and points at the root
	// client that owns the endpoint fleet and the substream cache.
	parent *Client

	// subs caches Substream handles by canonical key so repeated
	// lookups of one tenant share one prefetch ring.
	subMu sync.Mutex
	subs  map[string]*Client // guarded by subMu

	// now is the clock (Options.Clock or the wall clock); after is
	// the matching wait primitive. after stays package-private: tests
	// swap it so backoff pauses ride a fake clock instead of real
	// sleeps.
	now   func() time.Time
	after func(time.Duration) <-chan time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // refill goroutine exited

	// Drain side: the current block, guarded by mu. blocks is the
	// one-deep hand-off channel from the refill goroutine — the
	// "next buffer" of the double-buffered ring.
	mu     sync.Mutex
	cur    []byte // current block being drained; guarded by mu
	off    int    // drain offset into cur; guarded by mu
	blocks chan []byte

	// fetchErr publishes the refiller's last failure so a stalled
	// draw can fail with the real cause instead of a bare timeout;
	// cleared on the next successful fetch.
	fetchErr atomic.Pointer[fetchError]

	// shedUntil (unix nanos) backs off this handle after its tenant's
	// token bucket shed a keyed fetch with 429. Handle-local on
	// purpose: a per-tenant quota says nothing about endpoint health,
	// so the shared failover state must not absorb it.
	shedUntil atomic.Int64

	blockWords atomic.Int64 // current adaptive block size

	// Counters for Stats.
	draws     atomic.Uint64
	blocksIn  atomic.Uint64
	stalls    atomic.Uint64
	retries   atomic.Uint64
	failovers atomic.Uint64
	sheds     atomic.Uint64
	discarded atomic.Uint64
}

type fetchError struct{ err error }

// New builds a Client over the endpoint fleet and starts its refill
// goroutine. The first block fetch happens immediately, so by the
// time a caller first draws, randomness is usually already local.
func New(opts Options) (*Client, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	eps, err := newEndpointSet(opts)
	if err != nil {
		return nil, err
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		opts:     opts,
		http:     hc,
		eps:      eps,
		drawPath: "/bytes",
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		blocks:   make(chan []byte, 1),
		now:      opts.Clock,
		after:    opts.after,
	}
	if c.now == nil {
		c.now = time.Now //lint:wallclock default when Options.Clock is nil; the injection point IS Options.Clock
	}
	if c.after == nil {
		c.after = time.After //lint:wallclock default wait primitive; package tests inject a fake-clock channel
	}
	c.blockWords.Store(int64(opts.BlockWords))
	go c.refill()
	return c, nil
}

// SetEndpoints replaces the fleet of randd base URLs at runtime —
// the hook a fleet controller's endpoint watch feeds, so the client
// tracks nodes joining, draining and dying without a restart.
// Endpoints present in both the old and new lists keep their failover
// state (backoff windows, failure counts, epoch tracking); brand-new
// endpoints start trusted. In-flight prefetches complete against
// whichever endpoint they already chose; subsequent fetches pick from
// the new list. An empty or invalid list is rejected and the current
// fleet stays in effect — a flapping control plane must degrade to
// stale endpoints, never to none.
func (c *Client) SetEndpoints(endpoints []string) error {
	return c.eps.setEndpoints(endpoints)
}

// Substream returns a Client handle over the tenant stream derived
// for key — the consumer half of the server's /v1/stream/{key}
// routes. The handle is a full Client: it runs its own prefetch ring
// against "/v1/stream/{key}/bytes" (so one tenant outrunning the
// network never stalls another), while sharing the root client's
// endpoint fleet, failover bookkeeping and HTTP transport. Handles
// are cached per canonical key: two spellings the server would
// canonicalize to the same tenant return the same handle, mirroring
// the registry's own aliasing rule. Key validation happens here,
// client-side, with the same typed *substream.KeyError the server
// would answer 400 with — a bad key never costs a round trip.
//
// Closing a Substream handle releases its ring; a later Substream
// call with the same key builds a fresh handle whose draws continue
// the tenant's server-side stream position. Closing the root client
// closes every handle.
func (c *Client) Substream(key string) (*Client, error) {
	if c.parent != nil {
		// Substreams hang off the root client; derive from there so
		// the cache stays flat and paths never nest.
		return c.parent.Substream(key)
	}
	canon, err := substream.Canonical(key)
	if err != nil {
		return nil, err
	}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if sc, ok := c.subs[canon]; ok && sc.ctx.Err() == nil {
		return sc, nil
	}
	if c.ctx.Err() != nil {
		return nil, ErrClosed
	}
	ctx, cancel := context.WithCancel(c.ctx)
	sc := &Client{
		opts:     c.opts,
		http:     c.http,
		eps:      c.eps,
		drawPath: "/v1/stream/" + url.PathEscape(canon) + "/bytes",
		parent:   c,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		blocks:   make(chan []byte, 1),
		now:      c.now,
		after:    c.after,
	}
	sc.blockWords.Store(int64(c.opts.BlockWords))
	if c.subs == nil {
		c.subs = make(map[string]*Client)
	}
	c.subs[canon] = sc
	go sc.refill()
	return sc, nil
}

// Close stops the refill goroutine and releases the ring. Draws
// after Close return ErrClosed; a draw blocked on the ring is
// unblocked promptly. Closing the root client also closes every
// cached Substream handle; closing a handle leaves its siblings and
// the root untouched.
func (c *Client) Close() error {
	c.cancel()
	<-c.done
	c.subMu.Lock()
	subs := make([]*Client, 0, len(c.subs))
	for _, sc := range c.subs {
		subs = append(subs, sc)
	}
	c.subs = nil
	c.subMu.Unlock()
	for _, sc := range subs {
		sc.Close()
	}
	return nil
}

// Uint64 returns the next random word, mirroring
// (*hybridprng.Pool).Uint64 across the network. In steady state the
// word comes straight from the prefetch ring — no syscall, no
// network wait.
func (c *Client) Uint64() (uint64, error) {
	c.mu.Lock()
	if len(c.cur)-c.off < 8 {
		if err := c.nextBlockLocked(); err != nil {
			c.mu.Unlock()
			return 0, err
		}
	}
	v := binary.LittleEndian.Uint64(c.cur[c.off:])
	c.off += 8
	c.mu.Unlock()
	c.draws.Add(1)
	return v, nil
}

// Fill writes len(dst) words, mirroring (*hybridprng.Pool).Fill: on
// a non-nil error dst is zeroed in full, so callers can never
// consume stale buffer contents as randomness.
func (c *Client) Fill(dst []uint64) error {
	out := dst
	for len(out) > 0 {
		c.mu.Lock()
		if len(c.cur)-c.off < 8 {
			if err := c.nextBlockLocked(); err != nil {
				c.mu.Unlock()
				zeroWords(dst)
				return err
			}
		}
		n := (len(c.cur) - c.off) / 8
		if n > len(out) {
			n = len(out)
		}
		for i := 0; i < n; i++ {
			out[i] = binary.LittleEndian.Uint64(c.cur[c.off+8*i:])
		}
		c.off += 8 * n
		c.mu.Unlock()
		out = out[n:]
		c.draws.Add(uint64(n))
	}
	return nil
}

// Read fills p with random bytes, making a Client an io.Reader —
// the drop-in shape for code that today reads crypto/rand or a
// /bytes response body directly. On error it returns how many bytes
// were written (valid randomness) and zeroes the unfilled tail,
// mirroring (*hybridprng.Pool).Read.
func (c *Client) Read(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		c.mu.Lock()
		if c.off >= len(c.cur) {
			if err := c.nextBlockLocked(); err != nil {
				c.mu.Unlock()
				for i := done; i < len(p); i++ {
					p[i] = 0
				}
				return done, err
			}
		}
		n := copy(p[done:], c.cur[c.off:])
		c.off += n
		c.mu.Unlock()
		done += n
	}
	return done, nil
}

func zeroWords(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// nextBlockLocked swaps in the next prefetched block, discarding any
// sub-word residue of the current one (a word is never assembled
// across two blocks — that byte string would be randomness no server
// ever produced). Called with c.mu held. It blocks only when the
// refiller is behind, and then only up to the point where the
// refiller has published a fetch failure.
func (c *Client) nextBlockLocked() error {
	if rem := len(c.cur) - c.off; rem > 0 && rem < 8 {
		c.discarded.Add(uint64(rem))
	}
	// Closure first: a select picks at random among ready cases, and a
	// block prefetched before Close must not outrun ErrClosed.
	if c.ctx.Err() != nil {
		return ErrClosed
	}
	select {
	case b := <-c.blocks:
		c.cur, c.off = b, 0
		return nil
	default:
	}
	// The ring is empty: the consumer outran the network (or every
	// endpoint is down). Count the stall — it is the adaptive
	// sizing's grow signal — and wait, periodically checking whether
	// the refiller has hit a wall.
	c.stalls.Add(1)
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return ErrClosed
		case b := <-c.blocks:
			c.cur, c.off = b, 0
			return nil
		case <-ticker.C:
			if e := c.fetchErr.Load(); e != nil {
				return e.err
			}
		}
	}
}

// refill is the TRANSFER work unit: an endless loop fetching the
// next block while the caller drains the current one. It owns the
// adaptive block sizing and the failover bookkeeping.
func (c *Client) refill() {
	defer close(c.done)
	var lastEp *endpoint
	var lastStalls uint64
	for {
		words := int(c.blockWords.Load())
		start := c.now()
		block, ep, err := c.fetchBlock(words)
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			// Publish the failure for stalled draws, pause one
			// backoff base (the endpoint set already carries
			// per-endpoint retry times), keep trying: the fleet may
			// recover at any moment.
			c.fetchErr.Store(&fetchError{err})
			select {
			case <-c.after(c.opts.BackoffBase):
			case <-c.ctx.Done():
				return
			}
			continue
		}
		c.fetchErr.Store(nil)
		fetchDur := c.now().Sub(start)
		if lastEp != nil && ep != lastEp {
			c.failovers.Add(1)
		}
		lastEp = ep
		sendStart := c.now()
		select {
		case c.blocks <- block:
		case <-c.ctx.Done():
			return
		}
		waited := c.now().Sub(sendStart)
		nowStalls := c.stalls.Load()
		c.adapt(fetchDur, waited, nowStalls != lastStalls)
		lastStalls = nowStalls
		c.blocksIn.Add(1)
	}
}

// adapt moves the block size towards the drain rate: a stall while
// this block was in flight means transfers are too small to cover
// their own latency — double; a block that waited in the hand-off
// channel much longer than a fetch takes means the consumer is slow
// and we are buffering randomness it does not want yet — halve.
// This is the client-side analogue of the paper's block-size sweep
// (Fig. 5): both look for the smallest S that keeps the consumer
// busy.
func (c *Client) adapt(fetch, waited time.Duration, stalled bool) {
	w := c.blockWords.Load()
	switch {
	case stalled:
		w *= 2
	case fetch > 0 && waited > 4*fetch:
		w /= 2
	default:
		return
	}
	if w < int64(c.opts.MinBlockWords) {
		w = int64(c.opts.MinBlockWords)
	}
	if w > int64(c.opts.MaxBlockWords) {
		w = int64(c.opts.MaxBlockWords)
	}
	c.blockWords.Store(w)
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	Draws          uint64 // words served to callers
	Blocks         uint64 // blocks fetched
	Stalls         uint64 // draws that found the ring empty
	Retries        uint64 // failed block-fetch attempts
	Failovers      uint64 // blocks served by a different endpoint than the previous one
	Sheds429       uint64 // 429 responses received
	DiscardedBytes uint64 // sub-word residue dropped (truncated responses, odd Reads)
	EpochChanges   uint64 // server restarts observed via the stream token
	BlockWords     int    // current adaptive block size
	Endpoints      []EndpointStats
}

// EndpointStats describes one endpoint's health as the client sees
// it.
type EndpointStats struct {
	URL      string
	Healthy  bool          // currently eligible for fetches
	Degraded bool          // last response carried X-Pool-Degraded
	Failures uint64        // cumulative failed requests
	RetryIn  time.Duration // remaining backoff (0 when eligible)
	Epoch    string        // last stream-token epoch seen
}

// Stats snapshots the client. Safe to call concurrently with draws.
func (c *Client) Stats() Stats {
	st := Stats{
		Draws:          c.draws.Load(),
		Blocks:         c.blocksIn.Load(),
		Stalls:         c.stalls.Load(),
		Retries:        c.retries.Load(),
		Failovers:      c.failovers.Load(),
		Sheds429:       c.sheds.Load(),
		DiscardedBytes: c.discarded.Load(),
		BlockWords:     int(c.blockWords.Load()),
	}
	st.Endpoints, st.EpochChanges = c.eps.stats(c.now())
	return st
}
