// Package fleet is the control plane that turns a set of independent
// randd processes into one randomness service. The paper's on-demand
// contract — any consumer asks for the next number at any time and
// never waits on the producer — is kept per-process by the pool and
// the client SDK's failover; this package keeps it across *process
// loss*: nodes register and heartbeat, a controller detects failures
// through deterministic missed-heartbeat state machines
// (alive → suspect → dead, the node-level mirror of the pool's
// healthy → quarantined → retired shard machine), publishes the alive
// nodes as a versioned endpoint list, and drains nodes through the
// exact-resume snapshot path so a planned move never breaks a stream.
//
// # Roles
//
//   - Controller: the deterministic core. Pure bookkeeping over an
//     injected clock — no wall-clock reads, no goroutines, no I/O —
//     so every failure-detection and drain decision is unit testable
//     on a fake clock (and replayable: same heartbeat history + same
//     clock ⇒ same decisions).
//   - Server: the thin HTTP skin randctl serves (register, heartbeat,
//     endpoints watch, fleet status, drain orchestration).
//   - Agent: the node side, embedded in randd — registers on boot,
//     heartbeats the pool's health, deregisters before draining on
//     shutdown.
//   - WatchEndpoints: the consumer side — a long-poll loop feeding
//     the controller's live endpoint list into
//     (*client.Client).SetEndpoints so SDK failover learns about new
//     and dead nodes without restarts.
//
// # Stream-preserving drain
//
// A planned removal (deploy, hardware retirement) must not restart
// streams — that is exactly what the exact-resume state blobs exist
// for. BeginDrain opens a drain ticket for the node and removes it
// from the endpoint list; the operator (or randctl drain) then
// fetches the node's pool snapshot via its POST /drain endpoint,
// boots a replacement randd from that blob, and the replacement
// registers carrying the ticket's resume token. The controller closes
// the ticket and retires the drained node, and the replacement
// continues every stream bitwise where the drained node stopped.
// Each stream keeps one owner: a ticket is claimed once, and a
// draining or drained ID re-registers only with its own ticket. A
// node that dies *unplanned* gets no such grace: its streams end with
// it (continuity is impossible without a snapshot), and the client
// SDK's failover is what keeps draws succeeding meanwhile.
package fleet

import (
	"fmt"
	"time"
)

// NodeState is the controller's failure-detection state for a node.
type NodeState int

const (
	// StateAlive: heartbeats arriving within SuspectAfter.
	StateAlive NodeState = iota
	// StateSuspect: no heartbeat for SuspectAfter; the node is pulled
	// from the endpoint list — a heartbeat readmits it instantly.
	StateSuspect
	// StateDead: no heartbeat for DeadAfter; the node no longer counts
	// toward the partition heuristic and cannot be drained (unplanned
	// loss has no snapshot). A heartbeat still readmits it.
	StateDead
	// StateDraining: an operator asked for a stream-preserving drain;
	// the node is out of the endpoint list and its drain ticket awaits
	// a claimant.
	StateDraining
	// StateDrained: the drain hand-off completed; the node's streams
	// live on a successor and it may be deregistered.
	StateDrained
)

func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateDraining:
		return "draining"
	case StateDrained:
		return "drained"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// NodeInfo is what a node declares at registration.
type NodeInfo struct {
	// ID names the node for its whole lifetime (randd defaults it to
	// the hostname). Re-registering an existing ID refreshes the node
	// in place — the restart-with-state-file case.
	ID string `json:"id"`
	// URL is the base URL clients should draw from
	// ("http://host:port").
	URL string `json:"url"`
	// ResumeToken, when non-empty, claims a drain ticket: the node
	// registers as the successor of a draining node, continuing its
	// streams bitwise from the drained snapshot.
	ResumeToken string `json:"resume_token,omitempty"`
}

// HeartbeatReport is the per-heartbeat health payload: the pool's
// shard counts from hybridprng.PoolStats, as /healthz and /metrics
// see them, and the node's drain latch.
type HeartbeatReport struct {
	Shards  int `json:"shards"`
	Healthy int `json:"healthy"`
	// Draining reports the node's drain latch: it committed a
	// stream-preserving drain and refuses every draw. A node the
	// controller itself is draining reports this expectedly; an
	// *alive* node reporting it is a drained zombie (its drain's
	// rollback never reached it) and is kept out of the endpoint list
	// until the latch clears.
	Draining bool `json:"draining,omitempty"`
}

// NodeStatus is one node's row in a fleet snapshot.
type NodeStatus struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	State    string    `json:"state"`
	Healthy  int       `json:"healthy"`
	Shards   int       `json:"shards"`
	Draining bool      `json:"draining,omitempty"`
	LastBeat time.Time `json:"last_beat"`
}

// TicketStatus describes an open drain ticket.
type TicketStatus struct {
	Token  string `json:"token"`
	NodeID string `json:"node_id"`
}

// Status is a point-in-time fleet snapshot for randctl and /v1/fleet.
type Status struct {
	EndpointsVersion uint64         `json:"endpoints_version"`
	Endpoints        []string       `json:"endpoints"`
	Partitioned      bool           `json:"partitioned,omitempty"`
	Nodes            []NodeStatus   `json:"nodes"`
	Tickets          []TicketStatus `json:"tickets,omitempty"`
}
