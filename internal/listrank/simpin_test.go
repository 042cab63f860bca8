package listrank

import (
	"math"
	"testing"
)

// TestRankTimeSimPinned holds Figure 7's three variants at one list
// size to the exact float64 bits of their simulated time and
// utilisations, with their iteration and random counts. The shape test
// (TestFigure7Shape) would let a booking change move the figure by a
// few percent.
func TestRankTimeSimPinned(t *testing.T) {
	const n = 1_000_000
	type pin struct {
		iterations      int
		randoms         int64
		simNs, cpu, gpu uint64 // math.Float64bits of each field
	}
	for _, c := range []struct {
		variant string
		want    pin
	}{
		{VariantPureGPUMT, pin{70, 22779925, 0x41c3db0ded13b144, 0, 0x3ff0000000000000}},
		{VariantHybridGlibc, pin{70, 22779925, 0x41af0f9eacaaaaac, 0x3feffd96d74f1c20, 0x3fa142295370b412}},
		{VariantHybridOurs, pin{70, 10119462, 0x41a124c03e4ae876, 0x3fefd1ff0207e59c, 0x3feb63288781711c}},
	} {
		rep, err := RankTimeSim(c.variant, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{rep.Iterations, rep.Randoms,
			math.Float64bits(rep.SimNs), math.Float64bits(rep.CPUUtil), math.Float64bits(rep.GPUUtil)}
		if got != c.want {
			t.Errorf("%s n=%d: got %#v (time %v ns, cpu %v, gpu %v), want %#v",
				c.variant, n, got, rep.SimNs, rep.CPUUtil, rep.GPUUtil, c.want)
		}
	}
}
