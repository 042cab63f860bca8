package hybrid

import (
	"math"
	"testing"
)

// The simulated figures are pure functions of the cost model and of the
// order in which each generator books its work on the platform. The
// shape tests (who wins, overlap beats serial, linear growth) let a
// booking change move every figure by a few percent; these pins hold
// the exact float64 bits of the simulated time and the three
// utilisations instead.
type reportPin struct {
	simNs, cpu, gpu, link uint64 // math.Float64bits of each field
}

func pinOf(r Report) reportPin {
	return reportPin{
		math.Float64bits(r.SimNs), math.Float64bits(r.CPUUtil),
		math.Float64bits(r.GPUUtil), math.Float64bits(r.LinkUtil),
	}
}

func TestSimulatedReportsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(p *Platform) (Report, error)
		want reportPin
	}{
		{"GenerateHybrid(2e6, 100)", func(p *Platform) (Report, error) { return p.GenerateHybrid(2_000_000, 100) },
			reportPin{0x417bc2d044bae23f, 0x3fefacc595ca61f1, 0x3fea13d34b20ebf8, 0x3fcb2dd4762452c7}},
		// A short last batch, and a grid smaller than the device.
		{"GenerateHybrid(1e6+7, 10000)", func(p *Platform) (Report, error) { return p.GenerateHybrid(1_000_007, 10_000) },
			reportPin{0x41927fba9342060a, 0x3fdc25d90b8acd8e, 0x3fefff7139bc4190, 0x3fc57351cb549daa}},
		{"PureDeviceSerialHybrid(2e6, 100)", func(p *Platform) (Report, error) { return p.PureDeviceSerialHybrid(2_000_000, 100) },
			reportPin{0x418ba941a8bc6dc1, 0x3fdf5f24c83aa37f, 0x3fd9e5ff8c210104, 0x3fbaeb6eae916df7}},
		{"GenerateMTBatch(5e6)", func(p *Platform) (Report, error) { return p.GenerateMTBatch(5_000_000) },
			reportPin{0x41a137fb82762762, 0, 0x3ff0000000000000, 0}},
		// Fewer numbers than the batch grid: one number per thread.
		{"GenerateCurandDevice(1000)", func(p *Platform) (Report, error) { return p.GenerateCurandDevice(1000) },
			reportPin{0x41074989d89d89d8, 0, 0x3ff0000000000000, 0}},
		{"GenerateCurandDevice(5e6)", func(p *Platform) (Report, error) { return p.GenerateCurandDevice(5_000_000) },
			reportPin{0x41a25be513b13b14, 0, 0x3ff0000000000000, 0}},
	} {
		p, err := NewPlatform(DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.run(p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pinOf(rep); got != c.want {
			t.Errorf("%s: got %#v (time %v ns, cpu %v, gpu %v, link %v), want %#v",
				c.name, got, rep.SimNs, rep.CPUUtil, rep.GPUUtil, rep.LinkUtil, c.want)
		}
	}
}
