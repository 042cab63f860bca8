package baselines

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// SplitMix64 is Steele–Lea–Flood's splittable generator; it is used
// throughout the repository for seeding derived streams and serves as
// a modern lightweight baseline.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 with the given seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next output.
func (g *SplitMix64) Uint64() uint64 {
	g.state += 0x9E3779B97F4A7C15
	return Finalize64(g.state)
}

// Mix64 returns the first output of a SplitMix64 seeded with v: the
// golden gamma added, then Finalize64. A cheap high-quality scrambler
// for deriving per-worker seeds.
func Mix64(v uint64) uint64 { return Finalize64(v + 0x9E3779B97F4A7C15) }

// Finalize64 is SplitMix64's output function: a bijection on uint64
// in which every output bit depends on every input bit.
func Finalize64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// constructors maps registry names to seedable constructors.
var constructors = map[string]func(seed uint64) rng.Source{
	"glibc-rand":     func(s uint64) rng.Source { return NewGlibcRand(uint32(s)) },
	"glibc-rand32":   func(s uint64) rng.Source { return NewGlibcRand32(uint32(s)) },
	"ansic":          func(s uint64) rng.Source { return NewANSIC(uint32(s)) },
	"minstd":         func(s uint64) rng.Source { return NewMINSTD(int32(s)) },
	"lcg64":          func(s uint64) rng.Source { return NewKnuthLCG(s) },
	"mt19937":        func(s uint64) rng.Source { return NewMT19937(uint32(s)) },
	"mt19937-64":     func(s uint64) rng.Source { return NewMT19937_64(s) },
	"xorwow":         func(s uint64) rng.Source { return NewXORWOW(s) },
	"mwc":            func(s uint64) rng.Source { return NewMWC(DefaultMWCMultipliers[0], uint32(s)) },
	"md5-cudpp":      func(s uint64) rng.Source { return NewMD5Rand(s) },
	"splitmix64":     func(s uint64) rng.Source { return NewSplitMix64(s) },
	"kiss99":         func(s uint64) rng.Source { return NewKISS99(s) },
	"xorshift64star": func(s uint64) rng.Source { return NewXorShift64Star(s) },
}

// New constructs a registered baseline generator by name.
func New(name string, seed uint64) (rng.Source, error) {
	c, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("baselines: unknown generator %q (have %v)", name, Names())
	}
	return c(seed), nil
}

// Names returns the sorted list of registered generator names.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for n := range constructors {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
