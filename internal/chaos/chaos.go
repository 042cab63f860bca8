// Package chaos wraps feed generators with a deterministic,
// seed-driven fault schedule so the serving stack's recovery paths —
// SP 800-90B trips, shard quarantine and probation, server load
// shedding — can be exercised reproducibly in tests and drills
// instead of waiting for real hardware to misbehave.
//
// A chaos Source sits *between* the feed generator and the health
// monitor: the monitor sees the corrupted stream exactly as it would
// see a failing hardware source, so trips fire through the real
// detection path rather than through a test backdoor. Faults arrive
// on a schedule derived entirely from Config.Seed (interval, kind
// and duration all come from a private SplitMix64 stream), so a run
// is bit-for-bit repeatable: same seed, same faults, same trips.
//
// Chaos sources are deliberately not checkpointable — a fault
// schedule has no business inside a production snapshot, and
// hybridprng's state encoder rejects them — so `randd` refuses to
// combine its -chaos flag with -state.
package chaos

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/rng"
)

// Kind is a fault class.
type Kind int

const (
	// Stuck forces the stream to a constant all-ones word, the
	// classic stuck-bits failure; the repetition count test catches
	// it within a few words.
	Stuck Kind = iota
	// Bias ORs in a mask whose popcount ramps up over the fault's
	// duration, drifting the ones-density until the adaptive
	// proportion test fires.
	Bias
	// Burst replays the last clean word for the fault's duration — a
	// latched-output failure.
	Burst
	// Stall injects a latency pause (no data corruption): the word is
	// correct but late. Exercises server deadlines, not the monitor.
	Stall
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Stuck:
		return "stuck"
	case Bias:
		return "bias"
	case Burst:
		return "burst"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKinds parses a comma-separated fault-kind list
// ("stuck,bias,stall"); "all" or "" enables every kind.
func ParseKinds(s string) ([]Kind, error) {
	if s == "" || s == "all" {
		return []Kind{Stuck, Bias, Burst, Stall}, nil
	}
	var out []Kind
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "stuck":
			out = append(out, Stuck)
		case "bias":
			out = append(out, Bias)
		case "burst":
			out = append(out, Burst)
		case "stall":
			out = append(out, Stall)
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q", name)
		}
	}
	return out, nil
}

// Config parameterises a fault schedule. The zero value of each
// field means its default.
type Config struct {
	// Seed drives the entire schedule. Two sources built from equal
	// configs corrupt identical word offsets identically.
	Seed uint64
	// MeanPeriod is the average clean interval between faults, in
	// words (default 4096). Actual intervals are uniform on
	// [1, 2·MeanPeriod].
	MeanPeriod uint64
	// MeanLen is the average fault duration in words (default 64);
	// actual durations are uniform on [1, 2·MeanLen].
	MeanLen uint64
	// Kinds restricts which fault classes fire (default: all).
	Kinds []Kind
	// StallDur is the pause a Stall fault injects per word
	// (default 1ms).
	StallDur time.Duration
	// Sleep is the function Stall faults call (default time.Sleep).
	// Tests substitute a recording stub so chaos runs stay fast.
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.MeanPeriod == 0 {
		c.MeanPeriod = 4096
	}
	if c.MeanLen == 0 {
		c.MeanLen = 64
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []Kind{Stuck, Bias, Burst, Stall}
	}
	if c.StallDur == 0 {
		c.StallDur = time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Source corrupts an underlying feed on a deterministic schedule.
// Not safe for concurrent use — like every feed, it is owned by one
// shard behind that shard's lock.
type Source struct {
	src rng.Source
	cfg Config

	sm    *baselines.SplitMix64 // private schedule stream
	count uint64                // words served so far

	faultAt  uint64 // count at which the current/next fault begins
	faultEnd uint64 // count at which it ends (exclusive)
	kind     Kind
	last     uint64 // last clean word, for Burst
}

// New wraps src with the fault schedule described by cfg.
func New(cfg Config, src rng.Source) *Source {
	s := &Source{src: src, cfg: cfg.withDefaults(), sm: baselines.NewSplitMix64(cfg.Seed)}
	s.schedule(0)
	return s
}

// Wrapper adapts a Config to hybridprng.WithFeedWrapper: each worker
// gets its own schedule, derived from cfg.Seed and the worker index,
// so shards fault at different offsets (as real independent sources
// would) while the whole ensemble stays reproducible.
func Wrapper(cfg Config) func(worker int, src rng.Source) rng.Source {
	return func(worker int, src rng.Source) rng.Source {
		c := cfg
		c.Seed = baselines.Finalize64(cfg.Seed ^ (uint64(worker)+1)*0x9E3779B97F4A7C15)
		return New(c, src)
	}
}

// Unwrap returns the clean feed underneath, letting the pool's
// reseed path peel the chaos layer off before rebuilding (and
// Wrapper re-apply it to the fresh feed).
func (s *Source) Unwrap() rng.Source { return s.src }

// schedule plans the next fault strictly after word offset from.
func (s *Source) schedule(from uint64) {
	s.faultAt = from + 1 + s.sm.Uint64()%(2*s.cfg.MeanPeriod)
	s.faultEnd = s.faultAt + 1 + s.sm.Uint64()%(2*s.cfg.MeanLen)
	s.kind = s.cfg.Kinds[s.sm.Uint64()%uint64(len(s.cfg.Kinds))]
}

// Uint64 serves the next word, corrupted when the schedule says so.
func (s *Source) Uint64() uint64 {
	v := s.src.Uint64()
	off := s.count
	s.count++
	if off < s.faultAt {
		s.last = v
		return v
	}
	if off >= s.faultEnd {
		s.schedule(off)
		s.last = v
		return v
	}
	switch s.kind {
	case Stuck:
		return ^uint64(0)
	case Bias:
		// Ramp the forced-ones density across the fault: 16 bits set
		// at onset, up to 48 near the end.
		span := s.faultEnd - s.faultAt
		frac := (off - s.faultAt + 1) * 32 / span // 0..32
		return v | biasMask(16+frac)
	case Burst:
		return s.last
	case Stall:
		s.cfg.Sleep(s.cfg.StallDur)
		s.last = v
		return v
	}
	return v
}

// biasMask returns a mask with n bits set, spread across the word.
func biasMask(n uint64) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	var m uint64
	// Distribute the set bits at stride 64/n so the bias is spectral,
	// not just a low-bits clump.
	stride := 64 / n
	if stride == 0 {
		stride = 1
	}
	for i := uint64(0); i < 64 && uint64(bits.OnesCount64(m)) < n; i += stride {
		m |= 1 << i
	}
	for i := uint64(0); i < 64 && uint64(bits.OnesCount64(m)) < n; i++ {
		m |= 1 << i
	}
	return m
}
