package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// endpoint is one randd server as the client sees it. All mutable
// fields are guarded by endpointSet.mu — endpoint selection runs
// once per block, not per draw, so a single lock is never hot.
type endpoint struct {
	base  string // normalised base URL, no trailing slash
	index int

	fails        uint32    // consecutive failures (0 = trusted); guarded by endpointSet.mu
	failures     uint64    // cumulative failures; guarded by endpointSet.mu
	until        time.Time // end of the backoff window; guarded by endpointSet.mu
	degraded     bool      // last response carried X-Pool-Degraded; guarded by endpointSet.mu
	epoch        string    // last X-Randd-Epoch seen; guarded by endpointSet.mu
	epochChanges uint64    // guarded by endpointSet.mu
}

// endpointSet is the failover brain: round-robin selection over the
// fleet, skipping endpoints inside their backoff window, preferring
// non-degraded ones, and deriving deterministic jitter so a
// fixed-seed client retries on a reproducible timeline.
type endpointSet struct {
	mu  sync.Mutex
	eps []*endpoint
	rr  int // round-robin cursor; guarded by mu

	seed   uint64
	base   time.Duration
	max    time.Duration
	jitter float64
	now    func() time.Time // the Client's clock (Options.Clock or wall)
}

func newEndpointSet(opts Options) (*endpointSet, error) {
	s := &endpointSet{
		seed:   opts.Seed,
		base:   opts.BackoffBase,
		max:    opts.BackoffMax,
		jitter: opts.JitterFrac,
		now:    opts.Clock,
	}
	if s.now == nil {
		s.now = time.Now //lint:wallclock default when Options.Clock is nil; the injection point IS Options.Clock
	}
	eps, err := parseEndpoints(opts.Endpoints)
	if err != nil {
		return nil, err
	}
	s.eps = eps
	return s, nil
}

// parseEndpoints normalises and validates a base-URL list into fresh
// endpoint records.
func parseEndpoints(raws []string) ([]*endpoint, error) {
	eps := make([]*endpoint, 0, len(raws))
	for i, raw := range raws {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil {
			return nil, fmt.Errorf("client: endpoint %q: %w", raw, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("client: endpoint %q: need an http(s) base URL", raw)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("client: endpoint %q: missing host", raw)
		}
		eps = append(eps, &endpoint{base: u.String(), index: i})
	}
	return eps, nil
}

// setEndpoints replaces the fleet at runtime (fed from a controller's
// endpoint watch). Endpoints surviving the swap keep their records —
// backoff windows, failure counts and epoch tracking carry over, so a
// momentary list refresh cannot reset a misbehaving server to
// trusted. In-flight fetches are untouched: they hold *endpoint
// pointers whose mutable fields stay guarded by the same mutex, and
// their success/failure still lands on those records even when the
// endpoint just left the rotation (harmless — the record is simply no
// longer consulted). An empty list is rejected: a watch hiccup must
// not strand the client with nowhere to draw from.
func (s *endpointSet) setEndpoints(raws []string) error {
	if len(raws) == 0 {
		return fmt.Errorf("client: SetEndpoints: empty endpoint list")
	}
	fresh, err := parseEndpoints(raws)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := make(map[string]*endpoint, len(s.eps))
	for _, ep := range s.eps {
		old[ep.base] = ep
	}
	for i, ep := range fresh {
		if prev, ok := old[ep.base]; ok {
			prev.index = i
			fresh[i] = prev
		}
	}
	s.eps = fresh
	s.rr %= len(fresh)
	return nil
}

// pick returns the next endpoint eligible for a fetch, rotating
// round-robin so a multi-endpoint fleet shares load. Endpoints
// inside a backoff window are skipped; among the eligible, a
// non-degraded endpoint beats a degraded one (the X-Pool-Degraded
// hint steering traffic away from self-healing pools). When every
// endpoint is backing off, pick returns nil and the shortest wait
// until one becomes eligible — the caller sleeps, it never hammers.
func (s *endpointSet) pick(now time.Time) (*endpoint, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.eps)
	var fallback *endpoint
	for i := 0; i < n; i++ {
		ep := s.eps[(s.rr+i)%n]
		if now.Before(ep.until) {
			continue
		}
		if ep.degraded {
			if fallback == nil {
				fallback = ep
			}
			continue
		}
		s.rr = (s.rr + i + 1) % n
		return ep, 0
	}
	if fallback != nil {
		s.rr = (fallback.index + 1) % n
		return fallback, 0
	}
	wait := time.Duration(-1)
	for _, ep := range s.eps {
		if d := ep.until.Sub(now); wait < 0 || d < wait {
			wait = d
		}
	}
	return nil, wait
}

// suspect reports whether the endpoint has unresolved failures and
// must pass a /healthz probe before carrying draw traffic again.
func (s *endpointSet) suspect(ep *endpoint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ep.fails > 0
}

// ok records a successful draw response and folds in the
// cooperation headers: the degraded hint and the stream-token epoch
// (an epoch change means the server restarted).
func (s *endpointSet) ok(ep *endpoint, h http.Header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep.fails = 0
	ep.until = time.Time{}
	ep.degraded = h.Get("X-Pool-Degraded") == "true"
	if e := h.Get("X-Randd-Epoch"); e != "" {
		if ep.epoch != "" && ep.epoch != e {
			ep.epochChanges++
		}
		ep.epoch = e
	}
}

// fail records a failed request and arms the endpoint's backoff:
// exponential in the consecutive-failure count, deterministically
// jittered, capped at BackoffMax — and never shorter than a server's
// explicit Retry-After, which is a promise we keep.
func (s *endpointSet) fail(ep *endpoint, retryAfter time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep.fails++
	ep.failures++
	d := float64(s.base)
	for i := uint32(1); i < ep.fails && d < float64(s.max); i++ {
		d *= 2
	}
	if d > float64(s.max) {
		d = float64(s.max)
	}
	if s.jitter > 0 {
		u := float64(mix64(s.seed^(uint64(ep.index)+1)*0x9E3779B97F4A7C15^uint64(ep.fails))) / (1 << 64)
		d *= 1 + s.jitter*(2*u-1)
	}
	backoff := time.Duration(d)
	if retryAfter > backoff {
		backoff = retryAfter
	}
	ep.until = s.now().Add(backoff)
}

// stats snapshots every endpoint and the total epoch-change count.
func (s *endpointSet) stats(now time.Time) ([]EndpointStats, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EndpointStats, len(s.eps))
	var epochChanges uint64
	for i, ep := range s.eps {
		es := EndpointStats{
			URL:      ep.base,
			Healthy:  !now.Before(ep.until) && ep.fails == 0,
			Degraded: ep.degraded,
			Failures: ep.failures,
			Epoch:    ep.epoch,
		}
		if d := ep.until.Sub(now); d > 0 {
			es.RetryIn = d
		}
		epochChanges += ep.epochChanges
		out[i] = es
	}
	return out, epochChanges
}

// maxRetryAfter caps a Retry-After delay: longer ones saturate here
// instead of wrapping time.Duration, and a clock reading plus the cap
// still fits the int64 nanoseconds Client.shedUntil holds.
const maxRetryAfter = 100 * 365 * 24 * time.Hour

// parseRetryAfter reads a Retry-After header as delay seconds or an
// HTTP date timed from now (the client's clock), capped at
// maxRetryAfter; 0 means absent, unparseable or already past.
func parseRetryAfter(h http.Header, now time.Time) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		return time.Duration(max(0, min(secs, int64(maxRetryAfter/time.Second)))) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return min(d, maxRetryAfter)
		}
	}
	return 0
}

// mix64 is the SplitMix64 finalizer — the same bijection the pool
// uses for its deterministic jitter.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}
