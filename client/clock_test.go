package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for tests: Now returns
// the virtual instant, After registers a waiter that fires once
// Advance moves the clock past its deadline. Injected through
// Options.Clock / Options.after, it turns the client's backoff and
// failover timelines into instant, reproducible unit tests.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := f.t.Add(d)
	if d <= 0 {
		ch <- f.t
		return ch
	}
	f.waiters = append(f.waiters, fakeWaiter{at: at, ch: ch})
	return ch
}

// Advance moves the clock forward and fires every waiter whose
// deadline has passed.
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !f.t.Before(w.at) {
			w.ch <- f.t
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
}

// TestBackoffExponentialJittered pins the fail() backoff shape on a
// fake clock: exponential growth from BackoffBase, deterministic
// jitter within ±JitterFrac, the BackoffMax cap — and the whole
// timeline reproducible from the seed.
func TestBackoffExponentialJittered(t *testing.T) {
	const (
		base   = 100 * time.Millisecond
		max    = 2 * time.Second
		jitter = 0.2
	)
	build := func() (*endpointSet, *fakeClock) {
		fc := newFakeClock()
		s, err := newEndpointSet(Options{
			Endpoints:   []string{"http://a", "http://b"},
			BackoffBase: base,
			BackoffMax:  max,
			JitterFrac:  jitter,
			Seed:        42,
			Clock:       fc.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, fc
	}
	s, fc := build()
	ep := s.eps[0]
	want := float64(base)
	var seen []time.Duration
	for k := 0; k < 8; k++ {
		s.fail(ep, 0)
		d := func() time.Duration {
			s.mu.Lock()
			defer s.mu.Unlock()
			return ep.until.Sub(fc.Now())
		}()
		seen = append(seen, d)
		lo := time.Duration(want * (1 - jitter))
		hi := time.Duration(want * (1 + jitter))
		if d < lo || d > hi {
			t.Errorf("failure %d: backoff %v outside [%v, %v]", k+1, d, lo, hi)
		}
		if want < float64(max) {
			want *= 2
		}
		if want > float64(max) {
			want = float64(max)
		}
	}
	// Same seed, same endpoint, same failure count → same timeline.
	s2, fc2 := build()
	for k := 0; k < 8; k++ {
		s2.fail(s2.eps[0], 0)
		d := func() time.Duration {
			s2.mu.Lock()
			defer s2.mu.Unlock()
			return s2.eps[0].until.Sub(fc2.Now())
		}()
		if d != seen[k] {
			t.Errorf("failure %d: backoff not reproducible: %v vs %v", k+1, d, seen[k])
		}
	}
}

// TestRetryAfterFloor: an explicit Retry-After always wins over a
// shorter computed backoff.
func TestRetryAfterFloor(t *testing.T) {
	fc := newFakeClock()
	s, err := newEndpointSet(Options{
		Endpoints:   []string{"http://a"},
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		JitterFrac:  0.2,
		Clock:       fc.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := s.eps[0]
	s.fail(ep, 5*time.Second)
	s.mu.Lock()
	d := ep.until.Sub(fc.Now())
	s.mu.Unlock()
	if d < 5*time.Second {
		t.Errorf("backoff %v shorter than the promised Retry-After of 5s", d)
	}
}

// TestRetryAfterDateOnClientClock: a Retry-After given as an HTTP date
// is timed on the client's clock. The fake clock reads November 2023;
// timed on the wall clock the date would already have passed, and the
// endpoint, or a substream handle's shed window, would open again
// after one BackoffBase instead of the 60 s the server asked for.
func TestRetryAfterDateOnClientClock(t *testing.T) {
	fc := newFakeClock()
	t0 := fc.Now()
	retryAt := t0.Add(60 * time.Second).UTC().Format(http.TimeFormat)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAt)
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	cl := newTestClient(t, Options{
		Endpoints:   []string{ts.URL},
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Clock:       fc.Now,
		after:       fc.After,
	})
	ep := cl.eps.eps[0]
	if _, err := cl.fetchBytes(context.Background(), ep, 8); err == nil {
		t.Fatal("a 429 fetch succeeded")
	}
	if got, _ := cl.eps.pick(t0.Add(59 * time.Second)); got != nil {
		t.Error("endpoint eligible 59 s into a Retry-After date 60 s away")
	}
	if got, _ := cl.eps.pick(t0.Add(60 * time.Second)); got == nil {
		t.Error("endpoint still backing off once its Retry-After date came")
	}

	sub, err := cl.Substream("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.fetchBytes(context.Background(), ep, 8); err == nil {
		t.Fatal("a keyed 429 fetch succeeded")
	}
	if got := time.Unix(0, sub.shedUntil.Load()).Sub(t0); got != 60*time.Second {
		t.Errorf("substream shed for %v, want 60s", got)
	}
}

// TestPickSkipsBackingOff: a failed endpoint is skipped until its
// window passes; when the whole fleet is backing off, pick reports
// the shortest wait instead of an endpoint.
func TestPickSkipsBackingOff(t *testing.T) {
	fc := newFakeClock()
	s, err := newEndpointSet(Options{
		Endpoints:   []string{"http://a", "http://b"},
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  time.Second,
		JitterFrac:  0, // exact windows for this test
		Clock:       fc.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.eps[0], s.eps[1]
	s.fail(a, 0)
	for i := 0; i < 4; i++ {
		ep, wait := s.pick(fc.Now())
		if ep != b || wait != 0 {
			t.Fatalf("pick %d: got %+v wait %v, want endpoint b immediately", i, ep, wait)
		}
	}
	s.fail(b, 0)
	ep, wait := s.pick(fc.Now())
	if ep != nil {
		t.Fatalf("whole fleet backing off, yet pick returned %v", ep.base)
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("pick wait = %v, want within the 100ms window", wait)
	}
	fc.Advance(101 * time.Millisecond)
	if ep, _ = s.pick(fc.Now()); ep == nil {
		t.Fatal("backoff window passed, pick still returns nothing")
	}
}

// TestSuspectLifecycle: failures put an endpoint on probation
// (probe-before-readmit) and one success clears it.
func TestSuspectLifecycle(t *testing.T) {
	fc := newFakeClock()
	s, err := newEndpointSet(Options{
		Endpoints:   []string{"http://a"},
		BackoffBase: time.Millisecond,
		BackoffMax:  time.Millisecond,
		Clock:       fc.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := s.eps[0]
	if s.suspect(ep) {
		t.Fatal("fresh endpoint already suspect")
	}
	s.fail(ep, 0)
	if !s.suspect(ep) {
		t.Fatal("endpoint not suspect after a failure")
	}
	s.ok(ep, nil)
	if s.suspect(ep) {
		t.Fatal("endpoint still suspect after a success")
	}
}
