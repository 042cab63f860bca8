// Package gpu is a deterministic booking engine for a CUDA-era GPU
// platform: a Sim keeps named serial resources (the host CPU, the
// device's compute engine and its PCI-Express link) on one simulated
// clock, and a device Config prices kernels and copies for them.
//
// The paper evaluates on an Nvidia Tesla C1060 attached to an Intel
// i7 over PCIe 2.0; no such hardware (nor CUDA) exists in this
// environment, so per the reproduction's substitution rule the
// platform is simulated. Every figure the paper derives from that
// platform — compute/transfer overlap (Fig. 1/4), block-size sweeps
// (Fig. 5), generator timing ratios (Fig. 3/7/8) — is a consequence
// of the cost model, not the silicon, so the simulator reports
// simulated nanoseconds from explicit, documented cost formulas and
// records a full interval trace for utilisation accounting. It only
// books time: a kernel is a thread count and a cycle cost, and no
// kernel code runs. Which booking waits for which is the caller's
// schedule: internal/hybrid's Pipeline.
package gpu

import (
	"fmt"
	"sort"
	"sync"
)

// Time is a point in simulated time, in nanoseconds since the
// simulation epoch.
type Time = float64

// Interval is one traced occupancy of a resource.
type Interval struct {
	Resource string
	Label    string
	Start    Time
	End      Time
}

// Sim is the event engine: a set of named serial resources, each of
// which executes one operation at a time, plus a trace of everything
// that ran. The zero value is not usable; construct with NewSim.
//
// Sim is safe for concurrent use; scheduling is serialised
// internally, which also keeps the trace ordering deterministic for
// deterministic callers.
type Sim struct {
	mu    sync.Mutex
	free  map[string]Time
	trace []Interval
}

// NewSim returns an empty simulation at time 0.
func NewSim() *Sim {
	return &Sim{free: make(map[string]Time)}
}

// Schedule books an operation of the given duration on a resource:
// it starts at the later of `ready` (the caller's dependency) and
// the moment the resource frees up, occupies the resource for `dur`
// nanoseconds, and is recorded in the trace. It returns the booked
// interval. Negative durations are clamped to zero.
func (s *Sim) Schedule(resource, label string, ready Time, dur Time) Interval {
	if dur < 0 {
		dur = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.free[resource]
	if ready > start {
		start = ready
	}
	iv := Interval{Resource: resource, Label: label, Start: start, End: start + dur}
	s.free[resource] = iv.End
	s.trace = append(s.trace, iv)
	return iv
}

// Horizon returns the completion time of the entire simulation so
// far (the max over all resources).
func (s *Sim) Horizon() Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var h Time
	for _, t := range s.free {
		if t > h {
			h = t
		}
	}
	return h
}

// BusyTime returns the total booked time on a resource within
// [from, to].
func (s *Sim) BusyTime(resource string, from, to Time) Time {
	if to <= from {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var busy Time
	for _, iv := range s.trace {
		if iv.Resource != resource {
			continue
		}
		lo, hi := iv.Start, iv.End
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			busy += hi - lo
		}
	}
	return busy
}

// Utilization returns the busy fraction of a resource over
// [from, to].
func (s *Sim) Utilization(resource string, from, to Time) float64 {
	if to <= from {
		return 0
	}
	return s.BusyTime(resource, from, to) / (to - from)
}

// ResourceNames returns the sorted names of every resource that has
// been scheduled on.
func (s *Sim) ResourceNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.free))
	for n := range s.free {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TimelineString renders a compact textual timeline of the trace —
// the reproduction of the paper's Figure 1/4 style diagrams — with
// one row per resource and `width` character columns spanning
// [0, Horizon].
func (s *Sim) TimelineString(width int) string {
	if width < 10 {
		width = 10
	}
	horizon := s.Horizon()
	if horizon == 0 {
		return "(empty timeline)\n"
	}
	names := s.ResourceNames()
	pad := 0 // every row's bar starts in the same column
	for _, name := range names {
		pad = max(pad, len(name))
	}
	s.mu.Lock()
	trace := append([]Interval(nil), s.trace...)
	s.mu.Unlock()

	out := ""
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range trace {
			if iv.Resource != name {
				continue
			}
			lo := int(iv.Start / horizon * float64(width))
			hi := int(iv.End / horizon * float64(width))
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			c := byte('#')
			if len(iv.Label) > 0 {
				c = iv.Label[0]
			}
			for i := lo; i < hi; i++ {
				row[i] = c
			}
		}
		out += fmt.Sprintf("%-*s |%s|\n", pad, name, row)
	}
	out += fmt.Sprintf("horizon: %.1f ns\n", horizon)
	return out
}
