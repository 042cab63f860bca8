package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultHeartbeatInterval is the heartbeat cadence when
// Config.HeartbeatInterval is zero.
const DefaultHeartbeatInterval = 2 * time.Second

// ErrUnknownNode is returned for heartbeats from nodes the controller
// has never seen (or has dropped): the agent's cue to re-register.
var ErrUnknownNode = errors.New("fleet: unknown node")

// Config parameterises a Controller. Clock is required — the
// controller performs no wall-clock reads of its own, which is what
// makes its failure-detection timelines deterministic and
// replayable; binaries inject time.Now, tests inject a fake.
type Config struct {
	// HeartbeatInterval is the cadence the controller asks agents to
	// beat at (0 = DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence that moves a node alive → suspect
	// (0 = 3 × HeartbeatInterval).
	SuspectAfter time.Duration
	// DeadAfter is the silence that moves a node suspect → dead
	// (0 = 10 × HeartbeatInterval).
	DeadAfter time.Duration
	// Clock is the time source for heartbeat ages. Required: the
	// controller refuses to default to the wall clock.
	Clock func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Clock == nil {
		return c, errors.New("fleet: Config.Clock is required (inject time.Now from the binary, a fake clock from tests)")
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.HeartbeatInterval
	}
	if c.DeadAfter < c.SuspectAfter {
		return c, fmt.Errorf("fleet: DeadAfter %v < SuspectAfter %v", c.DeadAfter, c.SuspectAfter)
	}
	return c, nil
}

// node is the controller's book on one randd process.
type node struct {
	id       string
	url      string    // guarded by Controller.mu
	state    NodeState // guarded by Controller.mu
	lastBeat time.Time // guarded by Controller.mu

	healthy  int  // healthy shards from the last heartbeat; guarded by Controller.mu
	shards   int  // pool shards from the last heartbeat (0 = not reported yet); guarded by Controller.mu
	draining bool // node-reported drain latch from the last heartbeat; guarded by Controller.mu
}

// Controller is the deterministic control-plane core: registration,
// heartbeat failure detection, endpoint publication and
// stream-preserving drain bookkeeping. All methods are safe for
// concurrent use. It never reads the wall clock, spawns no
// goroutines and performs no I/O; the HTTP layer (Server) and the
// test suites drive it.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	nodes    map[string]*node  // guarded by mu
	tickets  map[string]string // open drain tickets: token → draining node ID; guarded by mu
	drainSeq uint64            // drain ticket counter; guarded by mu

	version     uint64        // endpoint list version; guarded by mu
	endpoints   []string      // cached endpoint list; guarded by mu
	wake        chan struct{} // closed+replaced on every version bump; guarded by mu
	partitioned bool          // controller-side partition heuristic active; guarded by mu
}

// NewController builds a Controller over cfg.
func NewController(cfg Config) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:     cfg,
		nodes:   make(map[string]*node),
		tickets: make(map[string]string),
		version: 1, // so a watcher at since=0 sees the initial (empty) list
		wake:    make(chan struct{}),
	}, nil
}

// Config returns the controller's effective configuration (defaults
// applied).
func (c *Controller) Config() Config { return c.cfg }

// RegisterResult is what a successful registration returns to the
// agent.
type RegisterResult struct {
	// HeartbeatInterval is the cadence the controller expects.
	HeartbeatInterval time.Duration `json:"heartbeat_interval"`
	// Warning carries non-fatal registration notes (e.g. an unknown
	// resume token: the node is registered, but succeeds no one).
	Warning string `json:"warning,omitempty"`
}

// Register admits (or refreshes) a node. Re-registering an existing
// ID updates its URL in place — the restart-with-state-file case. A
// ResumeToken claims a drain ticket: the node succeeds the drained
// node, which retires. The one refusal: a draining or drained ID
// cannot re-register without its own live drain ticket — its streams
// belong to a successor, and serving them again would fork the
// streams.
func (c *Controller) Register(info NodeInfo) (RegisterResult, error) {
	if info.ID == "" {
		return RegisterResult{}, errors.New("fleet: register: empty node id")
	}
	if info.URL == "" {
		return RegisterResult{}, errors.New("fleet: register: empty node url")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	c.advanceLocked(now)
	res := RegisterResult{HeartbeatInterval: c.cfg.HeartbeatInterval}
	owner := c.tickets[info.ResumeToken] // the ticket's node; "" when unknown/already claimed
	n, ok := c.nodes[info.ID]
	if !ok {
		n = &node{id: info.ID}
		c.nodes[info.ID] = n
	} else if (n.state == StateDraining || n.state == StateDrained) && owner != info.ID {
		// This ID's streams are moving (or moved) to a successor. A
		// re-registration without a live drain ticket is almost
		// certainly the drained process restarted against its
		// pre-drain state file — letting it serve would fork every
		// stream the successor continues. Only the node's OWN ticket
		// readmits it (the resumed-from-its-own-blob case): another
		// node's live token proves nothing about THIS node's streams,
		// and accepting it would hand this node streams whose state
		// it does not hold.
		return RegisterResult{}, fmt.Errorf(
			"fleet: register %s: node is %s; claim its streams with its own drain's resume token, or boot fresh under a new node ID",
			info.ID, n.state)
	}
	n.url = info.URL
	n.state = StateAlive
	n.draining = false // registration declares intent to serve
	n.lastBeat = now
	n.healthy, n.shards = 0, 0 // unknown until the first heartbeat
	if info.ResumeToken != "" {
		if owner == "" {
			res.Warning = fmt.Sprintf("resume token %q matches no open drain ticket; registered fresh", info.ResumeToken)
		} else {
			// When the claimant IS the drained node (same ID, resumed
			// from its own blob), it stays alive — only a distinct
			// predecessor is retired.
			if old, ok := c.nodes[owner]; ok && old != n && old.state == StateDraining {
				old.state = StateDrained
			}
			delete(c.tickets, info.ResumeToken)
		}
	}
	c.refreshEndpointsLocked()
	return res, nil
}

// Heartbeat ingests a node's periodic health report. Unknown nodes
// get ErrUnknownNode — the agent's cue to re-register. Reports that
// cannot describe a real pool (negative counts, more healthy shards
// than shards — curl is a documented client, so malformed input WILL
// arrive) are rejected before anything is stored: /v1/fleet would
// otherwise show operators a pool that cannot exist.
func (c *Controller) Heartbeat(id string, r HeartbeatReport) error {
	if r.Healthy < 0 || r.Shards < 0 || r.Healthy > r.Shards {
		return fmt.Errorf("fleet: heartbeat %s: impossible health report: healthy=%d shards=%d", id, r.Healthy, r.Shards)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock()
	n, ok := c.nodes[id]
	if !ok {
		return ErrUnknownNode
	}
	if n.state == StateDrained {
		// The hand-off completed: this node's streams live on a
		// successor, and serving one more word here would fork them.
		// Its agent may well still be beating — acknowledge the beat
		// (an ErrUnknownNode here would read as the re-register cue
		// and resurrect a node that must stay retired) but keep it
		// out of the endpoint list.
		n.lastBeat = now
		return nil
	}
	n.lastBeat = now
	if n.state == StateSuspect || n.state == StateDead {
		// A dead node beating again is a resurrection: it kept its
		// pool (we just could not hear it), so readmit it.
		n.state = StateAlive
	}
	if r.Shards > 0 {
		n.healthy, n.shards = r.Healthy, r.Shards
	}
	n.draining = r.Draining
	c.advanceLocked(now)
	c.refreshEndpointsLocked()
	return nil
}

// Deregister removes a node outright: endpoints drop it immediately.
// This is randd's leave-before-drain path — the controller steers
// clients away *before* the node stops serving. An open drain ticket
// for the node survives deregistration: the snapshot is already
// taken, a replacement may still claim it.
func (c *Controller) Deregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; !ok {
		return ErrUnknownNode
	}
	delete(c.nodes, id)
	c.advanceLocked(c.cfg.Clock())
	c.refreshEndpointsLocked()
	return nil
}

// BeginDrain starts a stream-preserving drain: the node leaves the
// endpoint list, a drain ticket opens for it, and the returned
// ticket's token is what a successor presents at registration to
// take over its streams. The caller is responsible for the
// data plane (fetch the node's snapshot, boot the successor from
// it); AbortDrain undoes everything if that fails.
func (c *Controller) BeginDrain(id string) (TicketStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return TicketStatus{}, ErrUnknownNode
	}
	if n.state != StateAlive && n.state != StateSuspect {
		return TicketStatus{}, fmt.Errorf("fleet: drain %s: node is %s", id, n.state)
	}
	c.drainSeq++
	token := fmt.Sprintf("drain-%s-%d", id, c.drainSeq)
	n.state = StateDraining
	c.tickets[token] = id
	c.refreshEndpointsLocked()
	return TicketStatus{Token: token, NodeID: id}, nil
}

// AbortDrain cancels an unclaimed drain ticket: the node rejoins the
// endpoint list.
func (c *Controller) AbortDrain(token string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.tickets[token]
	if !ok {
		return fmt.Errorf("fleet: abort drain: no open ticket %q", token)
	}
	delete(c.tickets, token)
	if n, ok := c.nodes[id]; ok && n.state == StateDraining {
		n.state = StateAlive
	}
	c.refreshEndpointsLocked()
	return nil
}

// NodeURL returns the registered base URL for a node — the HTTP
// layer's lookup when orchestrating a drain.
func (c *Controller) NodeURL(id string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return "", ErrUnknownNode
	}
	return n.url, nil
}

// Advance runs one failure-detection sweep at the injected clock's
// current instant. The HTTP layer calls this on a timer; tests call
// it after moving their fake clock.
func (c *Controller) Advance() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(c.cfg.Clock())
	c.refreshEndpointsLocked()
}

// advanceLocked applies the missed-heartbeat state machine:
// alive → suspect after SuspectAfter of silence, suspect → dead
// after DeadAfter. One guardrail: when *every* registered serving
// node has gone silent at once, the far more likely failure is the
// controller's own network partition, not a simultaneous whole-fleet
// death — so the sweep freezes (endpoints keep their last-known
// value, nobody is demoted) until any heartbeat gets through again.
// Mass-evicting the whole endpoint list on a controller-side
// partition would turn a control-plane blip into a data-plane outage.
func (c *Controller) advanceLocked(now time.Time) {
	serving, silent := 0, 0
	for _, n := range c.nodes {
		switch n.state {
		case StateAlive, StateSuspect:
			serving++
			if now.Sub(n.lastBeat) >= c.cfg.SuspectAfter {
				silent++
			}
		}
	}
	c.partitioned = serving > 0 && silent == serving
	if c.partitioned {
		return
	}
	for _, n := range c.nodes {
		age := now.Sub(n.lastBeat)
		switch n.state {
		case StateAlive:
			if age >= c.cfg.SuspectAfter {
				n.state = StateSuspect
			}
		case StateSuspect:
			if age >= c.cfg.DeadAfter {
				n.state = StateDead
			}
		}
	}
}

// Endpoints returns the current endpoint list and its version. The
// list contains exactly the alive nodes' URLs, sorted by node ID;
// suspect, dead, draining and drained nodes are excluded so clients
// steer away the moment the controller doubts a node.
func (c *Controller) Endpoints() (uint64, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(c.cfg.Clock())
	c.refreshEndpointsLocked()
	eps := make([]string, len(c.endpoints))
	copy(eps, c.endpoints)
	return c.version, eps
}

// WaitEndpoints blocks until the endpoint list's version exceeds
// since (long-poll), then returns it; ctx cancellation returns the
// current list immediately.
func (c *Controller) WaitEndpoints(ctx context.Context, since uint64) (uint64, []string) {
	for {
		c.mu.Lock()
		c.advanceLocked(c.cfg.Clock())
		c.refreshEndpointsLocked()
		if c.version > since || ctx.Err() != nil {
			v := c.version
			eps := make([]string, len(c.endpoints))
			copy(eps, c.endpoints)
			c.mu.Unlock()
			return v, eps
		}
		ch := c.wake
		c.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
}

// refreshEndpointsLocked recomputes the alive-node endpoint list and
// bumps the version when it changed, waking long-poll watchers. An
// alive node whose own heartbeat reports a latched drain is excluded:
// it is a drained zombie (its drain's rollback never reached it) that
// 503s every draw, and routing clients at it until an operator clears
// the latch would waste every one of those requests. The exclusion is
// heartbeat-driven, so it reverses itself the beat after an undrain.
func (c *Controller) refreshEndpointsLocked() {
	ids := make([]string, 0, len(c.nodes))
	for id, n := range c.nodes {
		if n.state == StateAlive && !n.draining {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	eps := make([]string, len(ids))
	for i, id := range ids {
		eps[i] = c.nodes[id].url
	}
	if slicesEqual(eps, c.endpoints) {
		return
	}
	c.endpoints = eps
	c.version++
	close(c.wake)
	c.wake = make(chan struct{})
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Status snapshots the whole fleet for /v1/fleet and randctl.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(c.cfg.Clock())
	c.refreshEndpointsLocked()
	st := Status{
		EndpointsVersion: c.version,
		Endpoints:        append([]string(nil), c.endpoints...),
		Partitioned:      c.partitioned,
	}
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := c.nodes[id]
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:       n.id,
			URL:      n.url,
			State:    n.state.String(),
			Healthy:  n.healthy,
			Shards:   n.shards,
			Draining: n.draining,
			LastBeat: n.lastBeat,
		})
	}
	tokens := make([]string, 0, len(c.tickets))
	for tok := range c.tickets {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	for _, tok := range tokens {
		st.Tickets = append(st.Tickets, TicketStatus{Token: tok, NodeID: c.tickets[tok]})
	}
	return st
}
