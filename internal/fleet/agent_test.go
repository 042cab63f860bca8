package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestAgentRunHeartbeatsAndReregisters: the agent registers, beats on
// the assigned cadence, and when the controller forgets it (404 —
// controller restart) it re-registers transparently instead of
// beating into the void.
func TestAgentRunHeartbeatsAndReregisters(t *testing.T) {
	clk := newFakeClock()
	ctrl, err := NewController(Config{
		HeartbeatInterval: 10 * time.Millisecond,
		Clock:             clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	var registers, beats atomic.Int64
	inner := NewServer(ctrl, ServerOptions{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/register":
			registers.Add(1)
		case "/v1/heartbeat":
			if beats.Add(1) == 2 {
				// Simulate a controller restart right under the agent.
				if err := ctrl.Deregister("a"); err != nil {
					t.Error(err)
				}
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	a, err := NewAgent(AgentOptions{
		Controller: srv.URL,
		Node:       NodeInfo{ID: "a", URL: "http://a"},
		Report:     func() HeartbeatReport { return healthyBeat(8) },
		RetryWait:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { a.Run(ctx); close(done) }()

	deadline := time.After(5 * time.Second)
	for registers.Load() < 2 || beats.Load() < 4 {
		select {
		case <-deadline:
			t.Fatalf("agent stalled: registers=%d beats=%d", registers.Load(), beats.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on cancel")
	}
	if _, eps := ctrl.Endpoints(); len(eps) != 1 {
		t.Fatalf("re-registered node missing from endpoints: %v", eps)
	}
}

// TestAgentRegisterRetriesUntilControllerUp: an agent started before
// its controller keeps retrying instead of giving up — node boot
// order must not matter.
func TestAgentRegisterRetriesUntilControllerUp(t *testing.T) {
	clk := newFakeClock()
	ctrl, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	var up atomic.Bool
	inner := NewServer(ctrl, ServerOptions{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	a, err := NewAgent(AgentOptions{
		Controller: srv.URL,
		Node:       NodeInfo{ID: "a", URL: "http://a"},
		Report:     func() HeartbeatReport { return healthyBeat(8) },
		Interval:   10 * time.Millisecond,
		RetryWait:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)

	time.Sleep(25 * time.Millisecond) // a few refused attempts
	up.Store(true)
	deadline := time.After(5 * time.Second)
	for {
		if _, eps := ctrl.Endpoints(); len(eps) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("agent never registered after controller came up")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestAgentDeregister: deregistration pulls the node out of the
// endpoint list, and a second call (already forgotten) is success,
// not an error — shutdown paths must be idempotent.
func TestAgentDeregister(t *testing.T) {
	clk := newFakeClock()
	ctrl, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl, ServerOptions{}).Handler())
	defer srv.Close()

	a, err := NewAgent(AgentOptions{
		Controller: srv.URL,
		Node:       NodeInfo{ID: "a", URL: "http://a"},
		Report:     func() HeartbeatReport { return healthyBeat(8) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Deregister(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, eps := ctrl.Endpoints(); len(eps) != 0 {
		t.Fatalf("endpoints after deregister: %v", eps)
	}
	if err := a.Deregister(context.Background()); err != nil {
		t.Fatalf("second deregister should be a no-op, got %v", err)
	}
}

// TestAgentOptionsValidation: the constructor rejects configs that
// could only fail later and louder.
func TestAgentOptionsValidation(t *testing.T) {
	report := func() HeartbeatReport { return HeartbeatReport{} }
	node := NodeInfo{ID: "a", URL: "http://a"}
	for _, opts := range []AgentOptions{
		{Node: node, Report: report},
		{Controller: "http://c", Report: report},
		{Controller: "http://c", Node: node},
	} {
		if _, err := NewAgent(opts); err == nil {
			t.Fatalf("NewAgent(%+v) should fail", opts)
		}
	}
}

// TestWatchEndpointsFollowsFleet: the watcher delivers the initial
// list and every subsequent change, and survives a controller outage
// by keeping quiet until it is back.
func TestWatchEndpointsFollowsFleet(t *testing.T) {
	clk := newFakeClock()
	ctrl, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(ctrl, ServerOptions{WatchHold: 50 * time.Millisecond}).Handler())
	defer srv.Close()
	if _, err := ctrl.Register(NodeInfo{ID: "a", URL: "http://a"}); err != nil {
		t.Fatal(err)
	}

	type update struct {
		version   uint64
		endpoints []string
	}
	updates := make(chan update, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go WatchEndpoints(ctx, srv.URL, nil, func(v uint64, eps []string) {
		updates <- update{v, eps}
	})

	first := <-updates
	if len(first.endpoints) != 1 || first.endpoints[0] != "http://a" {
		t.Fatalf("initial watch delivered %+v", first)
	}
	if _, err := ctrl.Register(NodeInfo{ID: "b", URL: "http://b"}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-updates:
		if u.version <= first.version || len(u.endpoints) != 2 {
			t.Fatalf("watch update %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher missed the endpoint change")
	}
}

// TestWatchEndpointsControllerRestart: a replaced controller starts
// its endpoint versioning from scratch, so the watcher sees the
// version go backwards. That must resync the watch, not freeze it on
// the dead controller's final list.
func TestWatchEndpointsControllerRestart(t *testing.T) {
	clk := newFakeClock()
	ctrl1, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	// Advance ctrl1 past version 1 so the restarted controller's
	// numbering is strictly behind.
	if _, err := ctrl1.Register(NodeInfo{ID: "a", URL: "http://a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl1.Register(NodeInfo{ID: "b", URL: "http://b"}); err != nil {
		t.Fatal(err)
	}

	var handler atomic.Value // http.Handler: the "controller process"
	handler.Store(NewServer(ctrl1, ServerOptions{WatchHold: 50 * time.Millisecond}).Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	type update struct {
		version   uint64
		endpoints []string
	}
	updates := make(chan update, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go WatchEndpoints(ctx, srv.URL, nil, func(v uint64, eps []string) {
		updates <- update{v, eps}
	})

	var last update
	deadline := time.After(5 * time.Second)
	for len(last.endpoints) != 2 {
		select {
		case last = <-updates:
		case <-deadline:
			t.Fatalf("watcher never reached ctrl1's two-node list, last %+v", last)
		}
	}

	// "Restart" the controller: a fresh process with a fresh version
	// counter and a different fleet.
	ctrl2, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl2.Register(NodeInfo{ID: "c", URL: "http://c"}); err != nil {
		t.Fatal(err)
	}
	handler.Store(NewServer(ctrl2, ServerOptions{WatchHold: 50 * time.Millisecond}).Handler())

	for {
		select {
		case u := <-updates:
			if len(u.endpoints) == 1 && u.endpoints[0] == "http://c" {
				if u.version >= last.version {
					t.Fatalf("restarted controller should have a lower version, got %d after %d", u.version, last.version)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("watcher stayed pinned to the dead controller's endpoint list after the version went backwards")
		}
	}
}
