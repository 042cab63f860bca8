// Package testu01 implements three test batteries modelled on
// L'Ecuyer and Simard's TestU01 SmallCrush / Crush / BigCrush: the
// same battery structure (15 named tests each, growing sample
// sizes), a representative selection of the TestU01 test families
// (Knuth's classics, Marsaglia's matrix rank and birthday spacings,
// string/Hamming tests, random walks, Berlekamp–Massey linear
// complexity and a spectral DFT test), and the same pass/fail
// reporting the paper's Table III uses.
//
// Sample sizes are scaled to laptop budgets: SmallCrush runs in
// well under a second, Crush in seconds, BigCrush in tens of
// seconds. The quality ordering the paper reports (everything passes
// SmallCrush; long-period linear generators lose the linear-
// complexity family at Crush/BigCrush sizes) is preserved, because
// the discriminating tests grow faster than the others.
package testu01

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Test is one battery entry: a named statistical test bound to its
// battery-specific parameters.
type Test struct {
	Name string
	Run  func(src rng.Source) ([]float64, error)
}

// Result is the outcome of one test.
type Result = stats.TestResult

// Outcome is a battery run.
type Outcome struct {
	Battery   string
	Generator string
	Results   []Result
	Passed    int
	Total     int
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s on %s: %d/%d passed", o.Battery, o.Generator, o.Passed, o.Total)
}

// Battery is a named list of tests.
type Battery struct {
	Name  string
	Tests []Test
}

// Run executes the battery against src with the paper's pass band.
func (b Battery) Run(generator string, src rng.Source) Outcome {
	out := Outcome{Battery: b.Name, Generator: generator, Total: len(b.Tests)}
	for _, t := range b.Tests {
		ps, err := t.Run(src)
		res := Result{Name: t.Name, PValues: ps, Err: err}
		if res.Passed(0.001, 0.999) {
			out.Passed++
		}
		out.Results = append(out.Results, res)
	}
	return out
}

// RunInterleaved executes the battery against the round-robin
// interleaving of srcs — the multi-source adapter the cross-stream
// battery feeds stream ensembles through (see
// diehard.RunBatteryInterleaved for the rationale).
func (b Battery) RunInterleaved(generator string, srcs []rng.Source) Outcome {
	return b.Run(generator, rng.Interleave(srcs...))
}

// sizes parameterises one battery's sample scales.
type sizes struct {
	rep        int // generic repetition multiplier
	collBalls  int
	gapCount   int
	pokerHands int
	couponSegs int
	maxOftN    int
	serialN    int
	weightN    int
	rankDim    int
	rankN      int
	hammingN   int
	walkN      int
	runBlocks  int
	lcBits     int
	lcBlocks   int
	dftBits    int
	dftReps    int
	bdaySamp   int
}

func smallSizes() sizes {
	return sizes{
		rep: 1, collBalls: 1 << 13, gapCount: 5000, pokerHands: 20000,
		couponSegs: 5000, maxOftN: 20000, serialN: 50000, weightN: 3000,
		rankDim: 64, rankN: 500, hammingN: 50000, walkN: 10000,
		runBlocks: 5000, lcBits: 2000, lcBlocks: 12, dftBits: 1 << 10,
		dftReps: 8, bdaySamp: 100,
	}
}

func crushSizes() sizes {
	return sizes{
		rep: 4, collBalls: 1 << 15, gapCount: 30000, pokerHands: 120000,
		couponSegs: 30000, maxOftN: 120000, serialN: 400000, weightN: 20000,
		rankDim: 256, rankN: 200, hammingN: 400000, walkN: 60000,
		runBlocks: 30000, lcBits: 44000, lcBlocks: 16, dftBits: 1 << 12,
		dftReps: 16, bdaySamp: 400,
	}
}

func bigSizes() sizes {
	return sizes{
		rep: 16, collBalls: 1 << 16, gapCount: 100000, pokerHands: 400000,
		couponSegs: 100000, maxOftN: 400000, serialN: 1500000, weightN: 60000,
		rankDim: 320, rankN: 200, hammingN: 1500000, walkN: 200000,
		runBlocks: 100000, lcBits: 50048, lcBlocks: 20, dftBits: 1 << 13,
		dftReps: 32, bdaySamp: 1000,
	}
}

func batteryFrom(name string, z sizes) Battery {
	return Battery{Name: name, Tests: []Test{
		{"birthday-spacings", func(s rng.Source) ([]float64, error) { return birthdaySpacings(s, z.bdaySamp) }},
		{"collision", func(s rng.Source) ([]float64, error) { return collision(s, z.collBalls, 1<<20, 4*z.rep) }},
		{"gap", func(s rng.Source) ([]float64, error) { return gap(s, 0, 0.125, z.gapCount) }},
		{"simple-poker", func(s rng.Source) ([]float64, error) { return simplePoker(s, 64, z.pokerHands) }},
		{"coupon-collector", func(s rng.Source) ([]float64, error) { return couponCollector(s, 8, z.couponSegs) }},
		{"max-of-t", func(s rng.Source) ([]float64, error) { return maxOfT(s, 8, z.maxOftN) }},
		{"serial-pairs", func(s rng.Source) ([]float64, error) { return serialPairs(s, 64, z.serialN) }},
		{"weight-distrib", func(s rng.Source) ([]float64, error) { return weightDistrib(s, 256, 0.25, z.weightN) }},
		{"matrix-rank", func(s rng.Source) ([]float64, error) { return matrixRank(s, z.rankDim, z.rankN) }},
		{"hamming-weight", func(s rng.Source) ([]float64, error) { return hammingWeight(s, z.hammingN) }},
		{"hamming-indep", func(s rng.Source) ([]float64, error) { return hammingIndep(s, z.hammingN/2) }},
		{"random-walk", func(s rng.Source) ([]float64, error) { return randomWalkH(s, 128, z.walkN) }},
		{"longest-head-run", func(s rng.Source) ([]float64, error) { return longestHeadRun(s, 128, z.runBlocks) }},
		{"linear-complexity", func(s rng.Source) ([]float64, error) { return linearComplexity(s, z.lcBits, z.lcBlocks) }},
		{"spectral-dft", func(s rng.Source) ([]float64, error) { return spectralDFT(s, z.dftBits, z.dftReps) }},
	}}
}

// SmallCrush returns the smallest battery.
func SmallCrush() Battery { return batteryFrom("SmallCrush", smallSizes()) }

// Crush returns the medium battery. Its linear-complexity test uses
// sequences longer than twice the MT19937 state, which is what makes
// pure GF(2)-linear generators fail here and not in SmallCrush.
func Crush() Battery { return batteryFrom("Crush", crushSizes()) }

// BigCrush returns the largest battery.
func BigCrush() Battery { return batteryFrom("BigCrush", bigSizes()) }

// Batteries returns all three in size order.
func Batteries() []Battery {
	return []Battery{SmallCrush(), Crush(), BigCrush()}
}
