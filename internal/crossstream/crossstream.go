// Package crossstream is the mass-parallel quality battery: where
// internal/diehard and internal/testu01 judge one stream at a time
// (the paper's Table II/III), this package judges an *ensemble* of
// streams the way the serving stack hands them out — hundreds to
// thousands of concurrent walker streams from Parallel workers, Pool
// shards or per-tenant substreams — and tests *between* the streams,
// because mass-parallel PRNGs fail differently from serial ones:
// through inter-stream correlation and bad initialization, not
// single-stream bias (Passerat-Palmbach et al., "Reliable
// Initialization of GPU-enabled Parallel Stochastic Simulations";
// the Shoverand safe-partitioning discipline).
//
// The battery's checks and the failure mode each one catches:
//
//   - pairwise cross-correlation (correlation.go): bitwise agreement
//     between stream pairs at several word lags — catches shared or
//     lag-shifted feed state, the "all walkers secretly ride one
//     generator" failure.
//   - interleaved composition (interleaved.go): the round-robin
//     composite of all streams fed through the existing DIEHARD and
//     SmallCrush batteries — inter-stream structure becomes serial
//     structure of one stream, where forty years of battery design
//     catch it.
//   - initialization avalanche + first-output balance
//     (initquality.go): nearby seeds must yield ~50% differing bits
//     from the very first output (Algorithm 1's mixing walk is what
//     buys this), and first outputs across the ensemble must be
//     bit-balanced — the classic bad-init signatures.
//   - prefix aliasing + occupancy (aliasing.go): windowed
//     fingerprints over every stream's prefix detect two streams
//     that are equal or offset copies of each other (counter reuse,
//     duplicated seeding), plus a coupon/occupancy test over first
//     outputs.
//
// Every pass/fail tolerance is derived from a false-alarm budget via
// internal/stats (RequiredPasses, BonferroniZ), the same calibration
// discipline quality_long_test.go applies to the single-stream
// batteries — never hardcoded counts.
//
// The package is deliberately generic over []rng.Source so the same
// battery runs against Parallel workers, Pool shards (via
// Pool.ShardFill), restored snapshots, recovered shards and
// synthetic bug fixtures. It reads no clocks and no global
// randomness: a run is a pure function of the streams and the
// config, so CI verdicts are reproducible.
package crossstream

import (
	"fmt"

	"repro/internal/rng"
)

// Check is one battery entry's verdict.
type Check struct {
	// Name identifies the check ("pairwise-correlation-extreme", ...).
	Name string `json:"name"`
	// Detail is a human-readable summary of the statistic and, on
	// failure, the offending streams.
	Detail string `json:"detail"`
	// P is the check's decision p-value where one exists (0 < P ≤ 1);
	// structural checks (exact aliasing) report 0 on failure, 1 on
	// pass.
	P float64 `json:"p"`
	// Pass is the calibrated verdict.
	Pass bool `json:"pass"`
}

// Report is a full battery run: the JSON verdict artifact
// cmd/crossstream emits and CI archives.
type Report struct {
	Name        string   `json:"name"`    // stream-set label ("parallel", "pool", ...)
	Profile     string   `json:"profile"` // "short" / "long" / custom
	Streams     int      `json:"streams"`
	PrefixWords int      `json:"prefix_words"`
	Checks      []Check  `json:"checks"`
	Passed      int      `json:"passed"`
	Total       int      `json:"total"`
	Findings    []string `json:"findings"` // failing checks, one line each
}

func (r *Report) add(cs ...Check) {
	for _, c := range cs {
		r.Checks = append(r.Checks, c)
		r.Total++
		if c.Pass {
			r.Passed++
		} else {
			r.Findings = append(r.Findings, c.Name+": "+c.Detail)
		}
	}
}

func (r *Report) String() string {
	return fmt.Sprintf("crossstream %s[%s]: %d/%d checks passed over %d streams",
		r.Name, r.Profile, r.Passed, r.Total, r.Streams)
}

// StreamSet is the battery input: named, independently drawable
// streams. Sources must be private to the battery for the run's
// duration (the battery draws from them).
type StreamSet struct {
	Name    string
	Names   []string
	Sources []rng.Source
}

// FromSources builds a StreamSet with generated names.
func FromSources(name string, srcs []rng.Source) StreamSet {
	names := make([]string, len(srcs))
	for i := range srcs {
		names[i] = fmt.Sprintf("%s[%d]", name, i)
	}
	return StreamSet{Name: name, Names: names, Sources: srcs}
}

// AvalancheConfig parameterises the nearby-seed initialization test;
// it needs a factory, not spawned streams, because the test's whole
// point is constructing generators from adjacent seeds.
type AvalancheConfig struct {
	// Stream returns the first `words` outputs of a fresh generator
	// built from seed.
	Stream func(seed uint64, words int) ([]uint64, error)
	// BaseSeed is the first seed; Seeds generators are built from
	// BaseSeed, BaseSeed+1, ... BaseSeed+Seeds-1.
	BaseSeed uint64
	Seeds    int
	// Words is the number of first outputs compared per seed pair.
	Words int
}

// Config tunes the battery. The zero value is not runnable; start
// from ShortProfile or LongProfile.
type Config struct {
	// Profile labels the run ("short", "long").
	Profile string
	// Prefix is the number of words drawn per stream for the prefix
	// tests (correlation, aliasing, balance).
	Prefix int
	// CorrWords is how many prefix words enter pairwise correlation
	// (≤ Prefix − max lag).
	CorrWords int
	// Lags are the word offsets at which pairs are correlated; lag 0
	// is the aligned comparison, positive lags are applied in both
	// orientations.
	Lags []int
	// MaxPairs caps the number of stream pairs correlated; 0 means
	// all C(n,2) pairs. When sampling, adjacent pairs (i, i+1) and
	// (i, i+2) — the nearby-seed pairs, where derivation bugs live —
	// are always included.
	MaxPairs int
	// SampleSeed drives the deterministic pair sample.
	SampleSeed uint64
	// AliasWindow/AliasStride parameterise the windowed prefix
	// fingerprints: every AliasWindow-word window at offsets
	// 0, AliasStride, 2·AliasStride, … of every stream is
	// fingerprinted, so an offset copy of a stream is caught even
	// when the streams are misaligned.
	AliasWindow, AliasStride int
	// OccupancyBuckets is the bucket count of the coupon/occupancy
	// test over first outputs (power of two).
	OccupancyBuckets int
	// BalanceWords is how many leading words per stream enter the
	// first-output bit-balance check.
	BalanceWords int
	// Avalanche enables the nearby-seed initialization test when
	// non-nil.
	Avalanche *AvalancheConfig
	// DiehardScale > 0 runs the interleaved composite through the
	// DIEHARD battery at that scale.
	DiehardScale float64
	// SmallCrush runs the interleaved composite through the
	// TestU01-style SmallCrush battery.
	SmallCrush bool
	// Alpha is the family-wise false-alarm budget per check
	// (default 1e-3).
	Alpha float64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 1e-3
	}
	if c.OccupancyBuckets == 0 {
		c.OccupancyBuckets = 64
	}
	if c.BalanceWords == 0 {
		c.BalanceWords = 4
	}
	if c.AliasStride == 0 {
		c.AliasStride = c.AliasWindow
	}
	return c
}

func (c Config) validate(streams int) error {
	if streams < 2 {
		return fmt.Errorf("crossstream: battery needs ≥ 2 streams, got %d", streams)
	}
	if c.Prefix < 1 {
		return fmt.Errorf("crossstream: prefix %d < 1", c.Prefix)
	}
	maxLag := 0
	for _, l := range c.Lags {
		if l < 0 {
			return fmt.Errorf("crossstream: negative lag %d", l)
		}
		if l > maxLag {
			maxLag = l
		}
	}
	if c.CorrWords > 0 && c.CorrWords+maxLag > c.Prefix {
		return fmt.Errorf("crossstream: correlation window %d + max lag %d exceeds prefix %d",
			c.CorrWords, maxLag, c.Prefix)
	}
	if c.AliasWindow > c.Prefix {
		return fmt.Errorf("crossstream: alias window %d exceeds prefix %d", c.AliasWindow, c.Prefix)
	}
	return nil
}

// ShortProfile is the per-PR CI configuration: hundreds of streams,
// every pair correlated, tens of seconds at most on one core.
func ShortProfile() Config {
	return Config{
		Profile:          "short",
		Prefix:           512,
		CorrWords:        448,
		Lags:             []int{0, 1, 2, 8},
		MaxPairs:         0, // all pairs
		AliasWindow:      32,
		AliasStride:      16,
		OccupancyBuckets: 64,
		BalanceWords:     4,
		DiehardScale:     1,
		SmallCrush:       true,
		Alpha:            1e-3,
	}
}

// LongProfile is the scheduled deep run: thousands of streams, a
// sampled pair budget (adjacent pairs always included), longer
// prefixes and a scaled-up DIEHARD pass. Minutes, not seconds.
func LongProfile() Config {
	return Config{
		Profile:          "long",
		Prefix:           4096,
		CorrWords:        1024,
		Lags:             []int{0, 1, 2, 8, 64},
		MaxPairs:         120_000,
		AliasWindow:      32,
		AliasStride:      32,
		OccupancyBuckets: 256,
		BalanceWords:     8,
		DiehardScale:     2,
		SmallCrush:       true,
		Alpha:            1e-3,
	}
}

// Run executes the battery over the stream set. It draws cfg.Prefix
// words from every source for the prefix tests, then (when the
// interleaved batteries are enabled) keeps drawing from the live
// sources round-robin — so the composite battery sees the streams
// exactly where serving traffic would.
func Run(set StreamSet, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(set.Names) != len(set.Sources) {
		return nil, fmt.Errorf("crossstream: %d names for %d sources", len(set.Names), len(set.Sources))
	}
	if err := cfg.validate(len(set.Sources)); err != nil {
		return nil, err
	}
	r := &Report{
		Name:        set.Name,
		Profile:     cfg.Profile,
		Streams:     len(set.Sources),
		PrefixWords: cfg.Prefix,
	}

	prefixes := make([][]uint64, len(set.Sources))
	for i, s := range set.Sources {
		p := make([]uint64, cfg.Prefix)
		for j := range p {
			p[j] = s.Uint64()
		}
		prefixes[i] = p
	}

	r.add(Aliasing(set.Names, prefixes, cfg)...)
	if cfg.CorrWords > 0 {
		r.add(Correlation(prefixes, cfg)...)
	}
	r.add(Balance(prefixes, cfg))
	if cfg.Avalanche != nil {
		cs, err := Avalanche(*cfg.Avalanche, cfg.Alpha)
		if err != nil {
			return nil, err
		}
		r.add(cs...)
	}
	r.add(Interleaved(set, cfg)...)
	return r, nil
}
