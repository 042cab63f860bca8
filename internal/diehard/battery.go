// Package diehard re-implements Marsaglia's DIEHARD battery — the 15
// tests of the classic menu — against any rng.Source, reporting
// per-test p-values, the pass count under the paper's criterion
// (0.01 ≤ p ≤ 0.99) and the closing Kolmogorov–Smirnov statistic D
// over all p-values, exactly the columns of the paper's Table II.
//
// Sample sizes default to reduced-but-sound versions of Marsaglia's
// originals so a full battery run stays in CI budgets; Config.Scale
// restores (or exceeds) the original sizes. Two tests deviate from
// the original statistics where the originals depend on tabulated
// covariance data: OPERM5 uses disjoint 5-tuples (plain multinomial
// chi-square over the 120 orderings) and Overlapping Sums uses
// disjoint sums (KS against the exact normal); the Squeeze cell
// probabilities are obtained by a two-sample homogeneity chi-square
// against a reference generator. Each deviation tests the same null
// hypothesis and is noted on the test's description.
package diehard

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Config tunes the battery.
type Config struct {
	// Scale multiplies every test's sample size; 1.0 is the default
	// reduced size, larger values approach Marsaglia's originals.
	Scale float64
	// Lo and Hi bound the pass band for p-values; the paper uses
	// [0.01, 0.99].
	Lo, Hi float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Lo, c.Hi = 0.01, 0.99
	}
	return c
}

// Result is the outcome of one battery entry.
type Result = stats.TestResult

// Outcome is a full battery run.
type Outcome struct {
	Generator string
	Results   []Result
	Passed    int
	Total     int
	KS        stats.KSResult // closing KS over all p-values
	Config    Config
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s: %d/%d DIEHARD tests passed, KS D = %.4f",
		o.Generator, o.Passed, o.Total, o.KS.D)
}

// Test is one battery entry.
type Test struct {
	Name        string
	Description string
	Run         func(src rng.Source, scale float64) ([]float64, error)
}

// Menu returns the 15 tests of the classic DIEHARD menu, in
// Marsaglia's order.
func Menu() []Test {
	return []Test{
		{"birthday-spacings", "512 birthdays in 2^24 days; duplicate spacings ~ Poisson(2)", birthdaySpacings},
		{"overlapping-permutations", "orderings of 5-tuples of consecutive words (disjoint-tuple variant)", operm5},
		{"rank-31x31-32x32", "GF(2) ranks of 31×31 and 32×32 random bit matrices", rank3132},
		{"rank-6x8", "GF(2) ranks of 6×8 byte matrices", rank6x8},
		{"bitstream", "missing 20-bit words in an overlapping bit stream", bitstream},
		{"opso-oqso-dna", "missing 2-, 4- and 10-letter monkey words", monkeyTrio},
		{"count-the-1s-stream", "chi-square of overlapping 5-letter words over byte 1-counts", countOnesStream},
		{"count-the-1s-bytes", "as the stream test, on a fixed byte of each word", countOnesBytes},
		{"parking-lot", "cars parked without crashes in a 100×100 lot", parkingLot},
		{"minimum-distance", "minimum pairwise distance of 8000 points in a square", minimumDistance},
		{"3d-spheres", "minimum centre distance of 4000 spheres in a cube", spheres3D},
		{"squeeze", "iterations of k ← ⌈kU⌉ from 2^31 to 1 (two-sample variant)", squeeze},
		{"overlapping-sums", "sums of 100 uniforms ~ N(50, 100/12) (disjoint-sum variant)", overlappingSums},
		{"runs", "total runs up+down ~ N((2n−1)/3, (16n−29)/90)", runsTest},
		{"craps", "wins and throws-per-game over many games of craps", craps},
	}
}

// RunBattery runs the full menu against src.
func RunBattery(name string, src rng.Source, cfg Config) Outcome {
	cfg = cfg.withDefaults()
	menu := Menu()
	out := Outcome{Generator: name, Total: len(menu), Config: cfg}
	var allP []float64
	for _, t := range menu {
		ps, err := t.Run(src, cfg.Scale)
		res := Result{Name: t.Name, Description: t.Description, PValues: ps, Err: err}
		if res.Passed(cfg.Lo, cfg.Hi) {
			out.Passed++
		}
		allP = append(allP, ps...)
		out.Results = append(out.Results, res)
	}
	if ks, err := stats.KSUniform(allP); err == nil {
		out.KS = ks
	}
	return out
}

// RunBatteryInterleaved runs the battery against the round-robin
// interleaving of srcs — the multi-source adapter the cross-stream
// battery (internal/crossstream) feeds ensembles of parallel streams
// through. Inter-stream defects (aliased streams, lag correlation, a
// shared bad prefix) become serial structure of the composite
// stream, which the classic tests were built to catch.
func RunBatteryInterleaved(name string, srcs []rng.Source, cfg Config) Outcome {
	return RunBattery(name, rng.Interleave(srcs...), cfg)
}

// lane32 adapts a 64-bit source to the 32-bit lane stream the
// classic battery was specified over (see rng.Lanes32): several
// historical generators hide their defects in the low bits, and a
// battery that only reads the top of each word would wave them
// through.
func lane32(src rng.Source) func() uint32 { return rng.Lanes32(src) }

// scaled returns max(1, round(base·scale)).
func scaled(base int, scale float64) int {
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
