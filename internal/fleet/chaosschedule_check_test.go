package fleet_test

import (
	"fmt"
	"testing"
	"time"
)

// TestFleetScheduleDeterministic: same config, same script — the
// whole point of seeded fleet drills.
func TestFleetScheduleDeterministic(t *testing.T) {
	cfg := fleetConfig{Seed: 42, Nodes: 3}
	a, err := newFleetSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newFleetSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("schedules diverged:\n%s\n%s", a, b)
	}
	c, err := newFleetSchedule(fleetConfig{Seed: 43, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced the same schedule")
	}
}

// TestFleetScheduleInvariants sweeps seeds and checks every scripted
// event is well-formed: inside the horizon, targeting a real node (or
// the controller for partitions), with kills bounded so the fleet
// always keeps a survivor.
func TestFleetScheduleInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nodes := 1 + int(seed%5)
			s, err := newFleetSchedule(fleetConfig{Seed: seed, Nodes: nodes, Horizon: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			kills := 0
			var prev time.Duration
			for _, ev := range s.Events() {
				if ev.At < prev {
					t.Fatalf("events out of order: %v", s)
				}
				prev = ev.At
				if ev.At <= 0 || ev.At >= 5*time.Second {
					t.Fatalf("event outside horizon: %v", ev)
				}
				switch ev.Kind {
				case partition:
					if ev.Node != -1 || ev.Dur <= 0 {
						t.Fatalf("malformed partition: %v", ev)
					}
				case nodeKill:
					kills++
					if ev.Node < 0 || ev.Node >= nodes || ev.Dur != 0 {
						t.Fatalf("malformed kill: %v", ev)
					}
				default:
					if ev.Node < 0 || ev.Node >= nodes || ev.Dur <= 0 {
						t.Fatalf("malformed event: %v", ev)
					}
				}
			}
			if kills >= nodes {
				t.Fatalf("%d kills would annihilate a %d-node fleet", kills, nodes)
			}
		})
	}
}

// TestFleetScheduleDue: the cursor drains each event exactly once, in
// order, as elapsed time advances.
func TestFleetScheduleDue(t *testing.T) {
	s, err := newFleetSchedule(fleetConfig{Seed: 7, Nodes: 3, Horizon: 8 * time.Second, MeanGap: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	all := s.Events()
	if len(all) == 0 {
		t.Fatal("schedule is empty; pick a different test seed")
	}
	var seen []fleetEvent
	for elapsed := time.Duration(0); elapsed <= 8*time.Second; elapsed += 100 * time.Millisecond {
		for _, ev := range s.Due(elapsed) {
			if ev.At > elapsed {
				t.Fatalf("event %v fired early at %v", ev, elapsed)
			}
			seen = append(seen, ev)
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("cursor delivered %d of %d events", len(seen), len(all))
	}
	for i := range seen {
		if seen[i] != all[i] {
			t.Fatalf("event %d delivered out of order", i)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d after full drain", s.Remaining())
	}
	if extra := s.Due(time.Hour); len(extra) != 0 {
		t.Fatalf("events delivered twice: %v", extra)
	}
}

// TestFleetScheduleValidation: a schedule with no fleet to hurt is an
// error, and MaxKills < 0 disables kills entirely.
func TestFleetScheduleValidation(t *testing.T) {
	if _, err := newFleetSchedule(fleetConfig{Seed: 1}); err == nil {
		t.Fatal("Nodes=0 should be rejected")
	}
	s, err := newFleetSchedule(fleetConfig{
		Seed: 9, Nodes: 4, Horizon: 20 * time.Second,
		MeanGap: 100 * time.Millisecond, MaxKills: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s.Events() {
		if ev.Kind == nodeKill {
			t.Fatalf("kill scheduled with MaxKills < 0: %v", ev)
		}
	}
}
