package crossstream

import (
	"fmt"

	"repro/internal/diehard"
	"repro/internal/stats"
	"repro/internal/testu01"
)

// Battery-level false-alarm calibration for the interleaved runs:
// the same per-test alphas quality_long_test.go derives for the
// single-stream batteries (DIEHARD's [0.01, 0.99] band ≈ 2% per
// test; the TestU01-style band plus the extreme-p rule ≈ 1%), at a
// 5% battery budget. For 15 tests both work out to "at most one
// borderline failure".
const (
	diehardPerTestAlpha = 0.02
	testu01PerTestAlpha = 0.01
	batteryAlpha        = 0.05
)

// Interleaved feeds the round-robin composite of all streams through
// the single-stream batteries. The composite continues from wherever
// the prefix draws left each source, so it sees fresh words — and the
// pass bars come from stats.RequiredPasses, not hardcoded counts.
func Interleaved(set StreamSet, cfg Config) []Check {
	var out []Check
	if cfg.DiehardScale > 0 {
		o := diehard.RunBatteryInterleaved("interleaved-"+set.Name, set.Sources,
			diehard.Config{Scale: cfg.DiehardScale})
		need := stats.RequiredPasses(o.Total, diehardPerTestAlpha, batteryAlpha)
		c := Check{
			Name: "interleaved-diehard",
			Detail: fmt.Sprintf("%d-way interleave: %d/%d DIEHARD passed (need ≥ %d), KS D = %.4f",
				len(set.Sources), o.Passed, o.Total, need, o.KS.D),
			P:    o.KS.Survival(),
			Pass: o.Passed >= need && o.KS.D <= 0.35,
		}
		if !c.Pass {
			c.Detail += failing(o.Results, 0.01, 0.99)
		}
		out = append(out, c)
	}
	if cfg.SmallCrush {
		o := testu01.SmallCrush().RunInterleaved("interleaved-"+set.Name, set.Sources)
		need := stats.RequiredPasses(o.Total, testu01PerTestAlpha, batteryAlpha)
		c := Check{
			Name: "interleaved-smallcrush",
			Detail: fmt.Sprintf("%d-way interleave: %d/%d SmallCrush passed (need ≥ %d)",
				len(set.Sources), o.Passed, o.Total, need),
			P:    1,
			Pass: o.Passed >= need,
		}
		if !c.Pass {
			c.Detail += failing(o.Results, 0.001, 0.999)
		}
		out = append(out, c)
	}
	return out
}

// failing names the tests of rs that fail the band [lo, hi], each
// with its decision p-value.
func failing(rs []stats.TestResult, lo, hi float64) string {
	s := "; failing:"
	for _, r := range rs {
		if !r.Passed(lo, hi) {
			s += fmt.Sprintf(" %s(p=%.5f)", r.Name, r.P())
		}
	}
	return s
}
