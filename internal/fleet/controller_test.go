package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic time source every controller test
// injects: the controller performs no waits of its own, so Now is
// all it needs.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// testConfig is the shared controller shape: 1 s heartbeats (suspect
// at 3 s, dead at 10 s).
func testConfig(clk *fakeClock) Config {
	return Config{HeartbeatInterval: time.Second, Clock: clk.Now}
}

func mustRegister(t *testing.T, c *Controller, id, url string) {
	t.Helper()
	if _, err := c.Register(NodeInfo{ID: id, URL: url}); err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
}

func nodeByID(t *testing.T, st Status, id string) NodeStatus {
	t.Helper()
	for _, n := range st.Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("node %s not in status", id)
	return NodeStatus{}
}

func healthyBeat(shards int) HeartbeatReport {
	return HeartbeatReport{Shards: shards, Healthy: shards}
}

// TestControllerStateMachine walks one node through
// alive → suspect → dead on missed heartbeats, then resurrects it,
// checking the state and the endpoint list at every transition.
func TestControllerStateMachine(t *testing.T) {
	clk := newFakeClock()
	c, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")
	v0, eps := c.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("endpoints = %v, want both nodes", eps)
	}

	// b keeps beating; a goes silent.
	for i := 0; i < 12; i++ {
		clk.Advance(time.Second)
		if err := c.Heartbeat("b", healthyBeat(8)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Status()
	if got := nodeByID(t, st, "a").State; got != "dead" {
		t.Fatalf("silent node state = %s, want dead", got)
	}
	v1, eps := c.Endpoints()
	if len(eps) != 1 || eps[0] != "http://b" {
		t.Fatalf("endpoints after death = %v, want only b", eps)
	}
	if v1 <= v0 {
		t.Fatalf("version did not advance: %d -> %d", v0, v1)
	}

	// The suspect window fires before the dead window.
	clk2 := newFakeClock()
	c2, _ := NewController(testConfig(clk2))
	mustRegister(t, c2, "a", "http://a")
	clk2.Advance(3 * time.Second)
	mustRegister(t, c2, "b", "http://b") // triggers a sweep; also ends the all-silent freeze
	if got := nodeByID(t, c2.Status(), "a").State; got != "suspect" {
		t.Fatalf("after SuspectAfter: state = %s, want suspect", got)
	}
	// A heartbeat readmits a suspect instantly.
	if err := c2.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	if got := nodeByID(t, c2.Status(), "a").State; got != "alive" {
		t.Fatalf("after heartbeat: state = %s, want alive", got)
	}

	// Resurrection: a dead node that beats again rejoins the
	// endpoint list.
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatalf("dead node heartbeat: %v", err)
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "alive" {
		t.Fatalf("resurrected state = %s, want alive", got)
	}
	if _, eps := c.Endpoints(); len(eps) != 2 {
		t.Fatalf("endpoints after resurrection = %v", eps)
	}
}

// TestControllerUnknownHeartbeat: heartbeats from unregistered nodes
// are the agent's re-register signal.
func TestControllerUnknownHeartbeat(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	if err := c.Heartbeat("ghost", healthyBeat(8)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat from unknown node: %v, want ErrUnknownNode", err)
	}
}

// TestControllerPartitionFreeze: when every serving node goes silent
// at once, the controller assumes it is the one partitioned and
// freezes — no demotions, endpoints keep their last-known value —
// until a heartbeat gets through.
func TestControllerPartitionFreeze(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")
	mustRegister(t, c, "c", "http://c")
	_, eps0 := c.Endpoints()

	// Total silence, far past DeadAfter.
	clk.Advance(time.Minute)
	c.Advance()
	st := c.Status()
	if !st.Partitioned {
		t.Fatal("all-silent fleet should trip the partition heuristic")
	}
	for _, n := range st.Nodes {
		if n.State != "alive" {
			t.Fatalf("node %s demoted to %s during controller partition", n.ID, n.State)
		}
	}
	if _, eps := c.Endpoints(); len(eps) != len(eps0) {
		t.Fatalf("endpoints changed during partition: %v -> %v", eps0, eps)
	}

	// One heartbeat ends the freeze; the still-silent nodes are then
	// judged on their real ages and die.
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	st = c.Status()
	if st.Partitioned {
		t.Fatal("partition flag should clear once a heartbeat arrives")
	}
	if got := nodeByID(t, st, "b").State; got != "dead" {
		t.Fatalf("node b after freeze lifted: %s, want dead", got)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 || eps[0] != "http://a" {
		t.Fatalf("endpoints after freeze lifted: %v", eps)
	}
}

// TestControllerDrainHandoff: BeginDrain opens a ticket and pulls
// the node from rotation; a successor registering with the token
// consumes the ticket; the drained node ends drained.
func TestControllerDrainHandoff(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	tk, err := c.BeginDrain("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 || eps[0] != "http://b" {
		t.Fatalf("draining node still in endpoints: %v", eps)
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "draining" {
		t.Fatalf("state = %s, want draining", got)
	}
	// No double drain.
	if _, err := c.BeginDrain("a"); err == nil {
		t.Fatal("second BeginDrain should fail")
	}

	// The successor claims with the token.
	res, err := c.Register(NodeInfo{ID: "a2", URL: "http://a2", ResumeToken: tk.Token})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warning != "" {
		t.Fatalf("unexpected warning: %s", res.Warning)
	}
	st := c.Status()
	if got := nodeByID(t, st, "a").State; got != "drained" {
		t.Fatalf("drained node state = %s", got)
	}
	if len(st.Tickets) != 0 {
		t.Fatalf("ticket not consumed: %+v", st.Tickets)
	}
	// A token cannot be claimed twice.
	res, err = c.Register(NodeInfo{ID: "a3", URL: "http://a3", ResumeToken: tk.Token})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warning == "" {
		t.Fatalf("stale token should warn: %+v", res)
	}
}

// TestControllerDrainedNodeStaysRetired: after the hand-off, the
// drained node must stay out of rotation no matter what its leftover
// agent does. Its heartbeats are acknowledged but do not resurrect it
// (a 404 would read as the re-register cue), and re-registering its
// ID without a live drain ticket is refused outright — serving that
// pool again would fork every stream the successor continues.
func TestControllerDrainedNodeStaysRetired(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	tk, err := c.BeginDrain("a")
	if err != nil {
		t.Fatal(err)
	}

	// Mid-drain, the node cannot re-register without the ticket.
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a"}); err == nil {
		t.Fatal("tokenless re-register of a draining node should fail")
	}

	if _, err := c.Register(NodeInfo{ID: "a2", URL: "http://a2", ResumeToken: tk.Token}); err != nil {
		t.Fatal(err)
	}

	// The drained node's agent is still running: its beats must be
	// acknowledged (not 404ed into a re-register) and change nothing.
	for i := 0; i < 3; i++ {
		clk.Advance(c.Config().HeartbeatInterval)
		if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
			t.Fatalf("drained heartbeat %d: %v", i, err)
		}
		// Keep the real fleet beating so the partition-freeze
		// heuristic cannot mask a resurrection.
		if err := c.Heartbeat("a2", healthyBeat(8)); err != nil {
			t.Fatal(err)
		}
		if err := c.Heartbeat("b", healthyBeat(8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "drained" {
		t.Fatalf("state = %s after heartbeats, want drained", got)
	}
	if _, eps := c.Endpoints(); len(eps) != 2 || eps[0] != "http://a2" || eps[1] != "http://b" {
		t.Fatalf("drained node crept back into endpoints: %v", eps)
	}

	// Without a live ticket (the successor consumed it), neither a
	// tokenless nor a stale-token re-register may resurrect the ID.
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a"}); err == nil {
		t.Fatal("tokenless re-register of a drained node should fail")
	}
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a", ResumeToken: tk.Token}); err == nil {
		t.Fatal("stale-token re-register of a drained node should fail")
	}
}

// TestControllerDrainSameIDResume: the successor may be the drained
// node itself — same ID, restarted from its own drain blob with the
// ticket. It claims its streams back and serves, alive.
func TestControllerDrainSameIDResume(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	tk, err := c.BeginDrain("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a", ResumeToken: tk.Token}); err != nil {
		t.Fatal(err)
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "alive" {
		t.Fatalf("state = %s, want alive", got)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 || eps[0] != "http://a" {
		t.Fatalf("resumed node missing from endpoints: %v", eps)
	}
}

// TestControllerAbortDrain: an aborted drain puts the node back in
// rotation.
func TestControllerAbortDrain(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	tk, err := c.BeginDrain("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AbortDrain(tk.Token); err != nil {
		t.Fatal(err)
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "alive" {
		t.Fatalf("after abort: state=%s, want alive", got)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 {
		t.Fatalf("endpoints after abort: %v", eps)
	}
	if err := c.AbortDrain(tk.Token); err == nil {
		t.Fatal("double abort should fail")
	}
}

// TestControllerDeregister: a deregistering node leaves the endpoint
// list at once.
func TestControllerDeregister(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")
	if err := c.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 || eps[0] != "http://b" {
		t.Fatalf("endpoints after deregister: %v", eps)
	}
	if err := c.Deregister("a"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("double deregister: %v", err)
	}
}

// TestControllerWaitEndpoints: the long-poll returns immediately on
// a stale version and wakes on the next change.
func TestControllerWaitEndpoints(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	v, eps := c.WaitEndpoints(context.Background(), 0)
	if len(eps) != 1 {
		t.Fatalf("immediate wait: %v", eps)
	}

	got := make(chan []string, 1)
	go func() {
		_, eps := c.WaitEndpoints(context.Background(), v)
		got <- eps
	}()
	mustRegister(t, c, "b", "http://b")
	select {
	case eps := <-got:
		if len(eps) != 2 {
			t.Fatalf("watcher saw %v, want both nodes", eps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}

	// Cancellation returns the current list instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v2, eps := c.WaitEndpoints(ctx, 1<<60)
	if v2 == 0 || len(eps) != 2 {
		t.Fatalf("cancelled wait: v=%d eps=%v", v2, eps)
	}
}

// TestControllerRegisterValidation: the two required fields are
// enforced with named errors.
func TestControllerRegisterValidation(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	for _, info := range []NodeInfo{
		{URL: "http://a"},
		{ID: "a"},
	} {
		if _, err := c.Register(info); err == nil {
			t.Fatalf("register %+v should fail", info)
		}
	}
	if _, err := NewController(Config{}); err == nil || !strings.Contains(err.Error(), "Clock") {
		t.Fatalf("nil clock must be rejected, got %v", err)
	}
}

// TestControllerDrainedRejectsForeignTicket: a draining/drained ID
// may only re-register by presenting its OWN drain ticket. Another
// node's live token proves nothing about this node's streams —
// accepting it would readmit the retired ID and hand it streams
// whose state it does not hold.
func TestControllerDrainedRejectsForeignTicket(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")

	tkA, err := c.BeginDrain("a")
	if err != nil {
		t.Fatal(err)
	}
	tkB, err := c.BeginDrain("b")
	if err != nil {
		t.Fatal(err)
	}

	// Draining "a" presenting b's live ticket must be refused.
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a", ResumeToken: tkB.Token}); err == nil {
		t.Fatal("draining node re-registered with another node's ticket")
	}
	// b's ticket must still be open and claimable by a real successor.
	if st := c.Status(); len(st.Tickets) != 2 {
		t.Fatalf("tickets after refused claim: %+v, want both still open", st.Tickets)
	}

	// Same refusal once the predecessor is fully drained: a successor
	// claims a's ticket, then "a" itself shows up waving b's token.
	if _, err := c.Register(NodeInfo{ID: "a2", URL: "http://a2", ResumeToken: tkA.Token}); err != nil {
		t.Fatal(err)
	}
	if got := nodeByID(t, c.Status(), "a").State; got != "drained" {
		t.Fatalf("predecessor state %q, want drained", got)
	}
	if _, err := c.Register(NodeInfo{ID: "a", URL: "http://a", ResumeToken: tkB.Token}); err == nil {
		t.Fatal("drained node re-registered with another node's ticket")
	}
	// Its own ticket is the legitimate path (resumed-from-own-blob).
	if _, err := c.Register(NodeInfo{ID: "b", URL: "http://b", ResumeToken: tkB.Token}); err != nil {
		t.Fatalf("own-ticket re-registration refused: %v", err)
	}
}

// TestControllerHeartbeatRejectsImpossibleHealth: reports that cannot
// describe a real pool (negative counts, Healthy > Shards) are
// rejected before anything is stored.
func TestControllerHeartbeatRejectsImpossibleHealth(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")

	for _, r := range []HeartbeatReport{
		{Shards: 8, Healthy: -1},
		{Shards: -8, Healthy: -8},
		{Shards: 8, Healthy: 9},
	} {
		if err := c.Heartbeat("a", r); err == nil {
			t.Fatalf("impossible report %+v accepted", r)
		}
	}
	// Nothing was stored.
	n := nodeByID(t, c.Status(), "a")
	if n.Healthy != 0 || n.Shards != 0 {
		t.Fatalf("rejected report leaked into state: %+v", n)
	}
	// A sane report still lands.
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
}

// TestControllerHeartbeatDrainingExcludesFromEndpoints: an alive node
// whose heartbeat reports a latched drain is a zombie that 503s every
// draw — it must leave the endpoint list until the latch clears.
func TestControllerHeartbeatDrainingExcludesFromEndpoints(t *testing.T) {
	clk := newFakeClock()
	c, _ := NewController(testConfig(clk))
	mustRegister(t, c, "a", "http://a")
	mustRegister(t, c, "b", "http://b")

	r := healthyBeat(8)
	r.Draining = true
	if err := c.Heartbeat("a", r); err != nil {
		t.Fatal(err)
	}
	if _, eps := c.Endpoints(); len(eps) != 1 || eps[0] != "http://b" {
		t.Fatalf("endpoints with zombie a: %v, want just b", eps)
	}
	if n := nodeByID(t, c.Status(), "a"); !n.Draining || n.State != "alive" {
		t.Fatalf("zombie not surfaced in status: %+v", n)
	}

	// The latch clearing (undrain succeeded) readmits it next beat.
	if err := c.Heartbeat("a", healthyBeat(8)); err != nil {
		t.Fatal(err)
	}
	if _, eps := c.Endpoints(); len(eps) != 2 {
		t.Fatalf("endpoints after latch cleared: %v, want both", eps)
	}
}
