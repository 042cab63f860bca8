package fleet_test

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
)

// Fleet-level chaos: while internal/chaos corrupts one feed's words, a
// fleetSchedule scripts whole-fleet failures — node kills, lost
// heartbeats, slow nodes, a partitioned controller — on the same
// seeded, bit-for-bit reproducible footing. The schedule is pure
// data: it decides *what happens when* from the seed alone, and the
// test harness (or a drill driver) executes the events against real
// processes. Keeping execution out of the schedule is what keeps it
// deterministic: no clock reads, no goroutines, just an event list
// and a cursor.

// fleetEventKind is a fleet-level fault class.
type fleetEventKind int

const (
	// nodeKill terminates a node abruptly — SIGKILL semantics, no
	// drain, no deregistration. Exercises the controller's
	// missed-heartbeat path and the client's failover.
	nodeKill fleetEventKind = iota
	// heartbeatLoss suppresses a node's heartbeats for the event's
	// duration while it keeps serving draws: the controller must
	// suspect it (steering clients away) without the data plane
	// ever failing a request, and readmit it when beats resume.
	heartbeatLoss
	// slowNode injects per-request latency for the duration,
	// exercising client hedging and the controller's indifference to
	// slow-but-alive nodes.
	slowNode
	// partition silences *every* node's heartbeats at once for the
	// duration — the controller-side partition drill. The controller
	// must freeze (keep last-known endpoints, demote nobody) rather
	// than declare the whole fleet dead.
	partition
)

func (k fleetEventKind) String() string {
	switch k {
	case nodeKill:
		return "node-kill"
	case heartbeatLoss:
		return "heartbeat-loss"
	case slowNode:
		return "slow-node"
	case partition:
		return "partition"
	}
	return fmt.Sprintf("fleet-kind(%d)", int(k))
}

// fleetEvent is one scheduled fleet fault.
type fleetEvent struct {
	// At is the event's offset from the start of the run.
	At time.Duration
	// Kind is the fault class.
	Kind fleetEventKind
	// Node is the target's index in [0, Nodes); -1 for partition,
	// which targets the control plane, not a node.
	Node int
	// Dur is how long the fault lasts (kills are permanent: 0).
	Dur time.Duration
}

func (e fleetEvent) String() string {
	target := fmt.Sprintf("node %d", e.Node)
	if e.Node < 0 {
		target = "controller"
	}
	if e.Dur > 0 {
		return fmt.Sprintf("%v: %s %s for %v", e.At, e.Kind, target, e.Dur)
	}
	return fmt.Sprintf("%v: %s %s", e.At, e.Kind, target)
}

// fleetConfig parameterises a fleet schedule. The zero value of each
// field (except Seed and Nodes) means its default.
type fleetConfig struct {
	// Seed drives the entire schedule; equal configs produce equal
	// event lists.
	Seed uint64
	// Nodes is the fleet size events target (required, ≥ 1).
	Nodes int
	// Horizon is the scheduling window (default 10s); every event
	// starts inside it.
	Horizon time.Duration
	// MeanGap is the average spacing between events (default
	// Horizon/4). Actual gaps are uniform on [MeanGap/2, 3·MeanGap/2].
	MeanGap time.Duration
	// MeanDur is the average fault duration for the bounded kinds
	// (default Horizon/8); uniform on [MeanDur/2, 3·MeanDur/2].
	MeanDur time.Duration
	// Kinds restricts which fault classes fire (default: all).
	Kinds []fleetEventKind
	// MaxKills bounds permanent node kills so a schedule cannot
	// annihilate the fleet (default: Nodes-1, keeping one survivor;
	// negative disables kills entirely).
	MaxKills int
}

func (c fleetConfig) withDefaults() (fleetConfig, error) {
	if c.Nodes < 1 {
		return c, fmt.Errorf("fleet schedule needs Nodes >= 1, got %d", c.Nodes)
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * time.Second
	}
	if c.MeanGap <= 0 {
		c.MeanGap = c.Horizon / 4
	}
	if c.MeanDur <= 0 {
		c.MeanDur = c.Horizon / 8
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []fleetEventKind{nodeKill, heartbeatLoss, slowNode, partition}
	}
	if c.MaxKills == 0 {
		c.MaxKills = c.Nodes - 1
	}
	return c, nil
}

// fleetSchedule is a deterministic, pre-computed fleet fault script.
// Events() exposes the whole script; Due() is the cursor a test's
// event loop drains as simulated (or real) time passes. The schedule
// itself never reads a clock — callers hand it elapsed time.
type fleetSchedule struct {
	cfg    fleetConfig
	events []fleetEvent
	next   int // Due() cursor
}

// newFleetSchedule derives the full event script from cfg.Seed.
func newFleetSchedule(cfg fleetConfig) (*fleetSchedule, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &fleetSchedule{cfg: cfg}
	rnd := baselines.NewSplitMix64(baselines.Finalize64(cfg.Seed ^ 0xf1ee7c8a05)).Uint64
	// Uniform on [m/2, 3m/2] keeps the mean at m without degenerate
	// zero gaps.
	spread := func(m time.Duration) time.Duration {
		return m/2 + time.Duration(rnd()%uint64(m))
	}
	kills := 0
	alive := cfg.Nodes
	for at := spread(cfg.MeanGap); at < cfg.Horizon; at += spread(cfg.MeanGap) {
		kind := cfg.Kinds[rnd()%uint64(len(cfg.Kinds))]
		ev := fleetEvent{At: at, Kind: kind, Node: int(rnd() % uint64(cfg.Nodes))}
		switch kind {
		case nodeKill:
			if cfg.MaxKills < 0 || kills >= cfg.MaxKills || alive <= 1 {
				continue // skip, don't reshape the rest of the timeline
			}
			kills++
			alive--
		case partition:
			ev.Node = -1
			ev.Dur = spread(cfg.MeanDur)
		default:
			ev.Dur = spread(cfg.MeanDur)
		}
		s.events = append(s.events, ev)
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	return s, nil
}

// Events returns the full script in firing order. Callers must not
// mutate it.
func (s *fleetSchedule) Events() []fleetEvent { return s.events }

// Due returns the events that fire at or before elapsed and advances
// the cursor past them; subsequent calls never return an event twice.
// A test loop is just:
//
//	for _, ev := range sched.Due(clock.Since(start)) { apply(ev) }
func (s *fleetSchedule) Due(elapsed time.Duration) []fleetEvent {
	start := s.next
	for s.next < len(s.events) && s.events[s.next].At <= elapsed {
		s.next++
	}
	return s.events[start:s.next]
}

// Remaining reports how many events have not fired yet.
func (s *fleetSchedule) Remaining() int { return len(s.events) - s.next }

// String renders the script, one event per line — drill logs lead
// with it so a failure is reproducible from the output alone.
func (s *fleetSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet schedule (seed %#x, %d nodes, horizon %v):\n",
		s.cfg.Seed, s.cfg.Nodes, s.cfg.Horizon)
	for _, ev := range s.events {
		fmt.Fprintf(&b, "  %s\n", ev)
	}
	return b.String()
}
