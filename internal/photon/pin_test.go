package photon

import (
	"math"
	"testing"
)

// TestSimulateTimingPinned holds Figure 8's two variants at one photon
// count to the exact float64 bits of their simulated time and
// utilisations. The shape tests (TestFigure8Shape and the linear
// growth test) would let a booking change move the figure by a few
// percent. One million photons leave a short last batch.
func TestSimulateTimingPinned(t *testing.T) {
	const photons, steps = 1_000_000, 264.9
	type pin struct{ simNs, cpu, gpu uint64 } // math.Float64bits of each field
	for _, c := range []struct {
		variant string
		want    pin
	}{
		{VariantOriginal, pin{0x41901b30dbe5be61, 0, 0x3ff0000000000000}},
		{VariantHybrid, pin{0x4188febbd178db53, 0x3fe146f3cd61ca4a, 0x3fef5b2b5243f231}},
	} {
		rep, err := SimulateTiming(c.variant, photons, steps)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{math.Float64bits(rep.SimNs), math.Float64bits(rep.CPUUtil), math.Float64bits(rep.GPUUtil)}
		if got != c.want {
			t.Errorf("%s photons=%d: got %#v (time %v ns, cpu %v, gpu %v), want %#v",
				c.variant, photons, got, rep.SimNs, rep.CPUUtil, rep.GPUUtil, c.want)
		}
	}
}
