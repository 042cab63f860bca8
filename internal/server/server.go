// Package server is randd's HTTP layer: it exposes a hybridprng.Pool
// as a streaming randomness service. The endpoints are deliberately
// boring HTTP so any client (curl, a load balancer's health prober,
// a metrics scraper) can consume them:
//
//	GET  /u64?n=N    N decimal uint64s, one per line (default 1)
//	GET  /bytes?n=N  N random octets, application/octet-stream
//	GET  /stream     endless little-endian uint64 stream until the
//	                 client hangs up (or ?words=N words)
//	GET  /v1/stream/{key}/u64?n=N    the tenant key's own stream,
//	                 decimal uint64s (requires Options.Substreams)
//	GET  /v1/stream/{key}/bytes?n=N  the tenant key's own stream,
//	                 random octets (requires Options.Substreams)
//	GET  /healthz    200 "ok" while every shard is healthy; 200
//	                 "degraded" while some shards are recovering but
//	                 the pool still serves; 503 "unhealthy" when no
//	                 shard is serving
//	GET  /metrics    JSON metrics via expvar (draws, refills, shard
//	                 occupancy, health trips, request counters,
//	                 snapshot count/age, panics, sheds, timeouts)
//	POST /snapshot   checkpoint the pool to the configured state
//	                 file (write-temp-then-rename); JSON receipt
//	POST /drain      stream-preserving handoff: stop admitting draws,
//	                 wait out in-flight ones, answer with the pool's
//	                 full state blob (Pool.MarshalBinary). The node
//	                 refuses draws permanently afterwards — serving
//	                 even one more word would fork the streams the
//	                 successor resumes. 409 if already draining.
//	POST /undrain    roll back a committed drain whose blob never
//	                 reached a successor (the orchestrator's relay
//	                 failed and the drain ticket was aborted): draws
//	                 are admitted again. Orchestrator-only — calling
//	                 it after the blob was handed over forks streams.
//
// The paper's one on-demand draw (GetNextRand, Algorithm 2) is served
// by one text handler (serveU64) and one bytes handler (serveBytes),
// whatever the route family: each route hands its handler a fill
// function — the pool's Fill/FillBytes, or a closure over the {key}
// tenant's Registry.Fill/FillBytes — and one error mapper turns a
// drawer's failure into a status. Every fill is one batched call per
// chunk of up to 8192 words, so one HTTP request amortises shard locks
// over thousands of words. Each draw route calls its fill function at
// least once, so ?n=0 still resolves the drawer: an empty 200 for the
// pool or a valid key, a 400 for a malformed key.
//
// # Response headers for cooperating clients
//
// Draw responses carry enough metadata that an SDK (package client)
// can react without a second round trip. The bytes routes always set
// Content-Type and Content-Length; the text routes do too when the
// request fits one chunk (n ≤ 8192 — the common SDK case; larger
// responses stream chunked). X-Pool-Degraded: true is stamped whenever /healthz
// would answer "degraded" (some shards down, pool still serving), so
// a client can start preferring healthier endpoints before anything
// fails. Every draw response also carries an ETag-style stream token,
//
//	ETag: "<epoch>-<words-served>"    (also X-Randd-Epoch: <epoch>)
//
// where epoch is a random per-boot identifier (stable across one
// process lifetime, different after any restart) and words-served is
// the monotone count of words this instance has served. The token is
// a resume validator in the ETag sense: a client that reconnects and
// sees the same epoch knows it is talking to the same pool instance
// and its streams continued exactly (the offset only ever grows —
// randomness is never replayed); a changed epoch means a restart, so
// any client-side assumptions tied to the old instance are void.
//
// # Overload protection
//
// Every handler runs behind a middleware chain. Panic recovery turns
// a handler panic into a 500 and a counter instead of a dead daemon.
// The draw endpoints (/u64, /bytes, /stream and the tenant routes)
// sit behind a bounded in-flight limit: past Options.MaxInFlight
// concurrent draws the server sheds immediately with 429 and a
// Retry-After header rather than queueing without bound — a
// randomness service under overload should fail fast so the load
// balancer retries elsewhere. The probe and admin endpoints bypass
// the limiter: an overloaded server must still answer /healthz. The
// other draw routes additionally carry a per-request deadline
// (Options.RequestTimeout); a request that cannot finish in time is
// truncated (or 503'd when nothing has been written) instead of
// holding its connection indefinitely. /stream is exempt from the
// request deadline — it is unbounded by design. Every draw route's
// body writes carry an idle-write deadline (Options.StreamWriteTimeout):
// a client that stops reading loses the connection instead of pinning
// an in-flight slot forever.
//
// # Exact resume
//
// With Options.StatePath set, Snapshot serialises the pool's full
// state (hybridprng.Pool.MarshalBinary) to disk atomically. A new
// Server over a pool restored from that file continues every shard's
// stream exactly where the snapshot left it, so the concatenation of
// the words served before the snapshot and after the restore is
// bitwise identical to an uninterrupted run — provided the snapshot
// was taken at a request boundary (randd drains in-flight requests
// before its shutdown snapshot). Words a client abandoned mid-request
// were already consumed from the shard walkers and are discarded, not
// replayed: the stream never repeats output, which is the only safe
// failure mode for a randomness service.
package server

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hybridprng "repro"
	"repro/internal/substream"
	"repro/internal/wordbytes"
)

// DefaultMaxWords caps /u64 and /bytes request sizes (in 64-bit
// words) so a single request cannot hold a connection forever —
// clients wanting more use /stream.
const DefaultMaxWords = 1 << 24

// DefaultMaxInFlight bounds concurrent draw requests before the
// server sheds with 429.
const DefaultMaxInFlight = 256

// DefaultRequestTimeout is the per-request deadline on /u64 and
// /bytes: generous against the word cap, but finite.
const DefaultRequestTimeout = 30 * time.Second

// DefaultStreamWriteTimeout is the per-chunk write deadline on every
// draw route: a client that stops reading for this long loses its
// connection instead of pinning an in-flight slot forever.
const DefaultStreamWriteTimeout = time.Minute

// DefaultDrainWait bounds how long POST /drain waits for in-flight
// draws to finish before giving up and returning the node to service.
const DefaultDrainWait = 10 * time.Second

// chunkWords is the scratch-buffer size the handlers fill per
// iteration: big enough to amortise pool and syscall overhead, small
// enough to stay cache-resident.
const chunkWords = 8192

// chunk is the per-request scratch a draw handler borrows from
// chunkPool: words for serveU64's fills, bytes for serveBytes' and
// serveStream's, text for serveU64's decimal formatting. On
// little-endian hosts bytes is a view of words' word-aligned block, so
// Pool.FillBytes writes response bytes in place; elsewhere it is a
// block of its own.
//
// Chunks are reused across requests, so a handler must only ever
// write bytes its fill filled *this* request — short responses take
// a prefix of freshly filled data, never of leftover buffer.
type chunk struct {
	words []uint64
	bytes []byte
	text  []byte
}

var chunkPool = sync.Pool{New: func() any {
	c := &chunk{words: make([]uint64, chunkWords), text: make([]byte, 0, chunkWords*21)}
	if c.bytes = wordbytes.Bytes(c.words); c.bytes == nil {
		c.bytes = make([]byte, chunkWords*8)
	}
	return c
}}

// Server serves a Pool over HTTP. Create with New; the zero value is
// not usable.
type Server struct {
	pool        *hybridprng.Pool
	sub         *substream.Registry // nil: per-tenant routes disabled
	maxWords    uint64
	statePath   string
	mux         *http.ServeMux
	maxInFlight int64
	reqTimeout  time.Duration
	streamWrite time.Duration
	epoch       string // per-boot stream-token identifier
	inFlight    atomic.Int64
	drainWait   time.Duration
	draining    atomic.Bool // once true, draw endpoints refuse forever

	metrics  *expvar.Map
	requests *expvar.Int
	reqErrs  *expvar.Int
	words    *expvar.Int
	panics   *expvar.Int
	sheds    *expvar.Int
	timeouts *expvar.Int

	// Snapshot bookkeeping: snapMu serialises writers (a concurrent
	// POST /snapshot and a shutdown snapshot must not interleave the
	// temp-file dance), the counters feed /metrics.
	snapMu       sync.Mutex
	snapshots    *expvar.Int
	lastSnapUnix atomic.Int64 // unix milliseconds; 0 = never
}

// Options tunes a Server.
type Options struct {
	// MaxWords caps the per-request size of /u64 and /bytes in
	// words; 0 means DefaultMaxWords. /bytes caps at MaxWords*8 bytes,
	// so New rejects any value above math.MaxUint64/8.
	MaxWords uint64
	// StatePath, when non-empty, enables checkpointing: POST
	// /snapshot (and the Snapshot method) atomically write the
	// pool's state there. Empty disables the endpoint.
	StatePath string
	// MaxInFlight bounds concurrent draw requests; excess requests
	// are shed with 429 + Retry-After. 0 means DefaultMaxInFlight;
	// negative disables shedding.
	MaxInFlight int
	// RequestTimeout is the per-request deadline on /u64 and /bytes.
	// 0 means DefaultRequestTimeout; negative disables deadlines.
	RequestTimeout time.Duration
	// StreamWriteTimeout is the idle-write deadline applied to each
	// body chunk of every draw route: a stalled client that stops
	// reading is disconnected once a single write blocks this long,
	// freeing its in-flight slot. 0 means DefaultStreamWriteTimeout;
	// negative disables the deadline.
	StreamWriteTimeout time.Duration
	// DrainWait bounds how long POST /drain waits for in-flight draws
	// before aborting and returning the node to service. 0 means
	// DefaultDrainWait.
	DrainWait time.Duration
	// Substreams, when non-nil, enables the per-tenant routes
	// (/v1/stream/{key}/u64 and /bytes): each key draws from its own
	// derived walker stream, rate-limited and metered per tenant, and
	// the registry state rides along in snapshots and drain blobs so
	// tenant streams survive restarts and handoffs. Nil (the default)
	// leaves the routes unregistered and the state blob format
	// unchanged.
	Substreams *substream.Registry
}

// New builds a Server over pool.
func New(pool *hybridprng.Pool, opts Options) (*Server, error) {
	if pool == nil {
		return nil, fmt.Errorf("server: nil pool")
	}
	maxWords := opts.MaxWords
	if maxWords == 0 {
		maxWords = DefaultMaxWords
	}
	if maxWords > math.MaxUint64/8 {
		return nil, fmt.Errorf("server: MaxWords %d exceeds %d: the /bytes cap of MaxWords*8 bytes would wrap",
			maxWords, uint64(math.MaxUint64/8))
	}
	maxInFlight := int64(opts.MaxInFlight)
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = DefaultRequestTimeout
	}
	streamWrite := opts.StreamWriteTimeout
	if streamWrite == 0 {
		streamWrite = DefaultStreamWriteTimeout
	}
	drainWait := opts.DrainWait
	if drainWait <= 0 {
		drainWait = DefaultDrainWait
	}
	s := &Server{
		pool:        pool,
		sub:         opts.Substreams,
		maxWords:    maxWords,
		statePath:   opts.StatePath,
		maxInFlight: maxInFlight,
		reqTimeout:  reqTimeout,
		streamWrite: streamWrite,
		drainWait:   drainWait,
		epoch:       newEpoch(),
		requests:    new(expvar.Int),
		reqErrs:     new(expvar.Int),
		words:       new(expvar.Int),
		panics:      new(expvar.Int),
		sheds:       new(expvar.Int),
		timeouts:    new(expvar.Int),
		snapshots:   new(expvar.Int),
	}
	// The metrics map is built per-Server (not expvar.Publish'd,
	// which panics on duplicate names across test servers); cmd/randd
	// publishes it into the global registry once. Funcs snapshot the
	// pool at scrape time.
	m := new(expvar.Map).Init()
	m.Set("requests", s.requests)
	m.Set("request_errors", s.reqErrs)
	m.Set("words_served", s.words)
	m.Set("panics_recovered", s.panics)
	m.Set("requests_shed", s.sheds)
	m.Set("request_timeouts", s.timeouts)
	m.Set("in_flight", expvar.Func(func() any { return s.inFlight.Load() }))
	m.Set("snapshots", s.snapshots)
	m.Set("snapshot_age_seconds", expvar.Func(func() any {
		last := s.lastSnapUnix.Load()
		if last == 0 {
			return -1 // never snapshotted
		}
		return time.Since(time.UnixMilli(last)).Seconds() //lint:wallclock snapshot age is an operator-facing wall-clock metric
	}))
	m.Set("pool", expvar.Func(func() any { return pool.Stats() }))
	if s.sub != nil {
		m.Set("substreams", expvar.Func(func() any { return s.sub.Stats() }))
	}
	s.metrics = m

	// Draw endpoints carry the full chain, and the bounded ones differ
	// only in their fill function; the probe and admin endpoints get
	// panic recovery only — an overloaded server must still answer its
	// health checks.
	draw := func(h http.HandlerFunc) http.Handler { return s.protect(s.shed(s.deadline(h))) }
	mux := http.NewServeMux()
	mux.Handle("/u64", draw(func(w http.ResponseWriter, r *http.Request) { s.serveU64(w, r, pool.Fill) }))
	mux.Handle("/bytes", draw(func(w http.ResponseWriter, r *http.Request) { s.serveBytes(w, r, pool.FillBytes) }))
	mux.Handle("/stream", s.protect(s.shed(http.HandlerFunc(s.serveStream))))
	mux.Handle("/healthz", s.protect(http.HandlerFunc(s.serveHealthz)))
	mux.Handle("/metrics", s.protect(http.HandlerFunc(s.serveMetrics)))
	mux.Handle("/snapshot", s.protect(http.HandlerFunc(s.serveSnapshot)))
	mux.Handle("/drain", s.protect(http.HandlerFunc(s.serveDrain)))
	mux.Handle("/undrain", s.protect(http.HandlerFunc(s.serveUndrain)))
	if reg := s.sub; reg != nil {
		mux.Handle("/v1/stream/{key}/u64", draw(func(w http.ResponseWriter, r *http.Request) {
			key := r.PathValue("key")
			s.serveU64(w, r, func(dst []uint64) error { return reg.Fill(key, dst) })
		}))
		mux.Handle("/v1/stream/{key}/bytes", draw(func(w http.ResponseWriter, r *http.Request) {
			key := r.PathValue("key")
			s.serveBytes(w, r, func(b []byte) error { return reg.FillBytes(key, b) })
		}))
	}
	s.mux = mux
	return s, nil
}

// protect converts a handler panic into a 500 response and a counter
// instead of a torn-down connection (or, outside net/http's own
// recovery, a dead process). The response is best-effort: when the
// panic fires mid-body the client sees a truncated stream, which is
// the only honest signal at that point.
func (s *Server) protect(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.panics.Add(1)
				s.reqErrs.Add(1)
				http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// shed rejects draw requests beyond the in-flight bound with 429 and
// a Retry-After hint. Failing fast beats queueing without bound: the
// caller's load balancer can retry a sibling immediately, and the
// requests already in flight keep their full share of the pool.
//
// Admission order is load-bearing for drain correctness: the
// in-flight count is taken BEFORE the draining check, and serveDrain
// reads the count only AFTER flipping draining on — so every draw is
// either visible to the drain's quiescence wait or observes draining
// and refuses. (Checking draining first would leave a window where a
// draw admitted pre-flip has not yet incremented the count, the wait
// sees zero, and the node serves words after its state blob went to a
// successor — forking the resumed streams.) The count is maintained
// even with shedding disabled (MaxInFlight < 0) because the drain
// wait depends on it.
func (s *Server) shed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if s.draining.Load() {
			s.requests.Add(1)
			s.fail(w, http.StatusServiceUnavailable, "draining: this node's streams moved to a successor")
			return
		}
		if s.maxInFlight > 0 && n > s.maxInFlight {
			s.sheds.Add(1)
			s.requests.Add(1)
			s.reqErrs.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// deadline attaches the per-request timeout to the request context;
// the bounded handlers check it between chunks.
func (s *Server) deadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// expired reports (and accounts for) a request whose deadline or
// client connection lapsed mid-generation.
func (s *Server) expired(w http.ResponseWriter, ctx context.Context, wrote bool) bool {
	err := ctx.Err()
	if err == nil {
		return false
	}
	if err == context.DeadlineExceeded {
		s.timeouts.Add(1)
	}
	if wrote {
		s.reqErrs.Add(1) // truncated body: the only honest option mid-stream
	} else {
		s.fail(w, http.StatusServiceUnavailable, "request deadline exceeded")
	}
	return true
}

// Snapshot checkpoints the pool to the configured StatePath: the
// blob is written to a temp file in the same directory and renamed
// into place, so a crash mid-write can never leave a torn state file
// behind. It returns the blob size.
func (s *Server) Snapshot() (int, error) {
	if s.statePath == "" {
		return 0, fmt.Errorf("server: snapshotting disabled (no state path configured)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	blob, err := s.nodeState()
	if err != nil {
		return 0, fmt.Errorf("server: checkpoint pool: %w", err)
	}
	dir, base := filepath.Split(s.statePath)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("server: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("server: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("server: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("server: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, s.statePath); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("server: publish snapshot: %w", err)
	}
	s.snapshots.Add(1)
	s.lastSnapUnix.Store(time.Now().UnixMilli()) //lint:wallclock snapshot timestamps are operator-facing wall-clock metadata
	return len(blob), nil
}

// serveSnapshot is the admin endpoint behind Snapshot. POST only —
// it mutates durable state.
func (s *Server) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	n, err := s.Snapshot()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		Path    string `json:"path"`
		Bytes   int    `json:"bytes"`
		Shards  int    `json:"shards"`
		UnixMs  int64  `json:"unix_ms"`
		Ordinal int64  `json:"ordinal"`
	}{s.statePath, n, s.pool.Shards(), s.lastSnapUnix.Load(), s.snapshots.Value()})
}

// serveDrain performs the node-side half of a stream-preserving
// handoff. The sequencing is the whole point: draining flips first,
// so the draw endpoints start refusing; then in-flight draws get
// DrainWait to finish, which parks the pool at a request boundary;
// only then is the state blob marshalled and returned. The blob is
// therefore exactly the state a successor must resume from for the
// concatenated streams to be bitwise identical to an uninterrupted
// run. After a successful drain this node never serves another word —
// one more draw here would fork every stream the successor continues.
// A failed drain (in-flight draws outlasting DrainWait, or a marshal
// error) flips draining back off: a node that could not hand over
// must keep serving rather than strand its capacity.
func (s *Server) serveDrain(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.draining.CompareAndSwap(false, true) {
		s.fail(w, http.StatusConflict, "drain already in progress or complete")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.drainWait)
	defer cancel()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for s.inFlight.Load() > 0 {
		select {
		case <-ctx.Done():
			s.draining.Store(false)
			s.fail(w, http.StatusServiceUnavailable,
				fmt.Sprintf("drain aborted: %d draws still in flight after %v", s.inFlight.Load(), s.drainWait))
			return
		case <-t.C:
		}
	}
	// The pool is quiescent: no draw can start (draining) and none is
	// running (inFlight == 0). Snapshot-writers are serialised too so
	// a concurrent POST /snapshot cannot observe a half-read state.
	s.snapMu.Lock()
	blob, err := s.nodeState()
	s.snapMu.Unlock()
	if err != nil {
		s.draining.Store(false)
		s.fail(w, http.StatusInternalServerError, fmt.Sprintf("drain: checkpoint pool: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Header().Set("X-Randd-Epoch", s.epoch)
	w.Write(blob)
}

// serveUndrain rolls back a committed drain, re-admitting draws. It
// exists for exactly one caller: the drain orchestrator whose relay
// of the drain blob failed after this node had already latched
// draining (e.g. the body read broke mid-transfer). In that case the
// blob never reached a successor and the controller aborted the drain
// ticket, so the latch is all that remains of the failed drain —
// without this endpoint the node would 503 every draw forever while
// the controller keeps routing clients at it. It must never be called
// once the blob was handed to a successor: that successor continues
// the streams, and this node serving even one more word would fork
// them. Idempotent; the receipt says whether a latch was cleared.
func (s *Server) serveUndrain(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	was := s.draining.Swap(false)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		Draining    bool `json:"draining"`
		WasDraining bool `json:"was_draining"`
	}{false, was})
}

// Draining reports whether the server has drained (or is draining):
// randd's shutdown path skips the exit snapshot for a drained node,
// whose state now lives with its successor.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsVar returns the server's metrics map for callers that want
// to expvar.Publish it into the process-global registry.
func (s *Server) MetricsVar() expvar.Var { return s.metrics }

// countWords parses the ?n= word/byte count with a default of 1 and
// the server's cap.
func (s *Server) countWords(w http.ResponseWriter, r *http.Request, param string, cap uint64) (uint64, bool) {
	q := r.URL.Query().Get(param)
	if q == "" {
		return 1, true
	}
	n, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("bad %s=%q: %v", param, q, err))
		return 0, false
	}
	if n > cap {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("%s=%d exceeds cap %d", param, n, cap))
		return 0, false
	}
	return n, true
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.reqErrs.Add(1)
	http.Error(w, msg, code)
}

// newEpoch draws the per-boot stream-token identifier. It is
// deliberately not taken from the pool (that would consume words and
// perturb exact-resume continuity) and needs no determinism — it only
// has to differ between process lifetimes.
func newEpoch() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano())) //lint:wallclock last-resort epoch nonce when crypto/rand fails; uniqueness, not determinism, is the goal
	}
	return hex.EncodeToString(b[:])
}

// setDrawHeaders stamps the client-cooperation headers on a draw
// response: the ETag-style stream token (epoch + words served so far)
// and the degraded hint mirroring what /healthz would say right now.
// Must be called before the first body write.
func (s *Server) setDrawHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("X-Randd-Epoch", s.epoch)
	h.Set("ETag", `"`+s.epoch+"-"+strconv.FormatInt(s.words.Value(), 10)+`"`)
	if healthy, total := s.pool.Health(); healthy > 0 && healthy < total {
		h.Set("X-Pool-Degraded", "true")
	}
}

// serveU64 writes n decimal uint64s, one per line, drawn through
// fill: Pool.Fill for /u64, the tenant's Registry.Fill for
// /v1/stream/{key}/u64. Single-chunk requests (n ≤ chunkWords, the
// common SDK case) are fully buffered so the response carries an
// exact Content-Length; larger requests stream chunked. On the keyed
// route every chunk pays the tenant's token bucket, so a rate limit
// mid-response truncates, exactly like a lapsed deadline.
func (s *Server) serveU64(w http.ResponseWriter, r *http.Request, fill func([]uint64) error) {
	s.requests.Add(1)
	n, ok := s.countWords(w, r, "n", s.maxWords)
	if !ok {
		return
	}
	s.setDrawHeaders(w)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	ctx := r.Context()
	c := chunkPool.Get().(*chunk)
	defer chunkPool.Put(c)
	buffered := n <= chunkWords
	for wrote := false; ; wrote = true {
		if s.expired(w, ctx, wrote) {
			return
		}
		batch := min(n, chunkWords)
		if err := fill(c.words[:batch]); err != nil {
			s.drawFailed(w, err, wrote)
			return
		}
		// One reusable text buffer: 20 digits + newline per word.
		out := c.text[:0]
		for _, v := range c.words[:batch] {
			out = strconv.AppendUint(out, v, 10)
			out = append(out, '\n')
		}
		if buffered {
			w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		}
		if !s.writeChunk(w, out) {
			return
		}
		s.words.Add(int64(batch))
		if n -= batch; n == 0 {
			return
		}
	}
}

// serveBytes writes n random octets drawn through fill: Pool.FillBytes
// for /bytes, the tenant's Registry.FillBytes for
// /v1/stream/{key}/bytes, one chunk per call. On little-endian hosts
// Pool.FillBytes fills the chunk's word-aligned block in place, so the
// steady per-chunk path performs no copies and no allocations.
func (s *Server) serveBytes(w http.ResponseWriter, r *http.Request, fill func([]byte) error) {
	s.requests.Add(1)
	n, ok := s.countWords(w, r, "n", s.maxWords*8)
	if !ok {
		return
	}
	s.setDrawHeaders(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatUint(n, 10))
	ctx := r.Context()
	c := chunkPool.Get().(*chunk)
	defer chunkPool.Put(c)
	for wrote := false; ; wrote = true {
		if s.expired(w, ctx, wrote) {
			return
		}
		batch := min(n, uint64(len(c.bytes)))
		if err := fill(c.bytes[:batch]); err != nil {
			s.drawFailed(w, err, wrote)
			return
		}
		if !s.writeChunk(w, c.bytes[:batch]) {
			return
		}
		s.words.Add(int64((batch + 7) / 8))
		if n -= batch; n == 0 {
			return
		}
	}
}

// drawFailed maps a drawer's error onto the draw-path HTTP contract.
// Mid-body the only honest option is a truncated response. Before the
// body: an invalid tenant key is the caller's fault (400); a
// rate-limited tenant gets 429 with its bucket's own refill estimate
// in Retry-After (rounded up — retrying early just sheds again);
// anything else, including every pool error, is 503.
func (s *Server) drawFailed(w http.ResponseWriter, err error, wrote bool) {
	if wrote {
		s.reqErrs.Add(1)
		return
	}
	var ke *substream.KeyError
	var rl *substream.RateLimitError
	switch {
	case errors.As(err, &ke):
		s.fail(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &rl):
		secs := int((rl.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
		s.sheds.Add(1)
		s.fail(w, http.StatusTooManyRequests, err.Error())
	default:
		s.fail(w, http.StatusServiceUnavailable, err.Error())
	}
}

// serveStream writes little-endian uint64s until the client goes
// away (or ?words=N words have been sent). Each chunk is flushed so
// slow consumers see bytes promptly.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	limit, ok := s.countWords(w, r, "words", 1<<62)
	if !ok {
		return
	}
	if r.URL.Query().Get("words") == "" {
		limit = 1 << 62 // effectively unbounded; the client hangs up
	}
	s.setDrawHeaders(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	c := chunkPool.Get().(*chunk)
	defer chunkPool.Put(c)
	wrote := false
	for limit > 0 {
		select {
		case <-ctx.Done():
			return
		default:
		}
		batch := min(limit, chunkWords)
		if err := s.pool.FillBytes(c.bytes[:batch*8]); err != nil {
			s.drawFailed(w, err, wrote)
			return
		}
		if !s.writeChunk(w, c.bytes[:batch*8]) {
			return
		}
		wrote = true
		s.words.Add(int64(batch))
		if flusher != nil {
			flusher.Flush() // still under the chunk's write deadline
		}
		limit -= batch
	}
}

// writeChunk writes one chunk of a draw body and reports whether it
// went out. Each chunk re-arms the idle-write deadline, so a client
// that stops reading cannot pin the handler in Write, where the
// request deadline is never checked, and its in-flight slot with it;
// net/http clears the deadline when the response ends. Writers without
// SetWriteDeadline (test recorders) get no deadline, and no error
// allocated per call as http.ResponseController would.
func (s *Server) writeChunk(w http.ResponseWriter, b []byte) bool {
	if dl, ok := w.(interface{ SetWriteDeadline(time.Time) error }); ok && s.streamWrite > 0 {
		_ = dl.SetWriteDeadline(time.Now().Add(s.streamWrite)) //lint:wallclock socket deadlines are kernel wall-clock by definition
	}
	if _, err := w.Write(b); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.timeouts.Add(1)
			s.reqErrs.Add(1)
		}
		return false
	}
	return true
}

// HealthBody is the machine-readable /healthz payload served for the
// degraded and unhealthy states — the shape fleet controllers and
// probers parse instead of scraping prose. The healthy state keeps
// its plain-text "ok" line: every probe on the planet understands it,
// and nothing needs per-shard detail from a fully healthy node.
type HealthBody struct {
	Status      string `json:"status"` // "degraded" | "unhealthy"
	Error       string `json:"error,omitempty"`
	Healthy     int    `json:"healthy"`
	Shards      int    `json:"shards"`
	Quarantined int    `json:"quarantined"`
	Probation   int    `json:"probation"`
	Retired     int    `json:"retired"`
	Recoveries  uint64 `json:"recoveries"`
	Epoch       string `json:"epoch"`
	Draining    bool   `json:"draining,omitempty"`
}

// serveHealthz distinguishes three states. "ok" (200, plain text):
// every shard healthy. "degraded" (200, JSON): some shards are
// quarantined, in probation or retired but the pool still serves —
// the instance stays in rotation while self-healing runs, and the
// body carries the counts and failure machine-readably. "unhealthy"
// (503, JSON): no shard is serving; the load balancer should pull the
// instance until recovery readmits a shard. A drained node also
// answers 503 — it refuses draws, so advertising health would lie to
// the balancer.
func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st := s.pool.Stats()
	body := HealthBody{
		Healthy:     st.Healthy,
		Shards:      st.Shards,
		Quarantined: st.Quarantined,
		Probation:   st.Probation,
		Retired:     st.Retired,
		Recoveries:  st.Recoveries,
		Epoch:       s.epoch,
		Draining:    s.draining.Load(),
	}
	if err := s.pool.HealthErr(); err != nil {
		body.Error = err.Error()
	}
	switch {
	case st.Healthy == 0 || body.Draining:
		body.Status = "unhealthy"
		if body.Error == "" && body.Draining {
			body.Error = "draining: this node's streams moved to a successor"
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(body)
	case st.Healthy < st.Shards:
		body.Status = "degraded"
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		json.NewEncoder(w).Encode(body)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok (healthy %d/%d, quarantined %d, probation %d, retired %d, recoveries %d)\n",
			st.Healthy, st.Shards, st.Quarantined, st.Probation, st.Retired, st.Recoveries)
	}
}

// serveMetrics emits the metrics map as JSON (expvar's wire format).
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, s.metrics.String())
}
