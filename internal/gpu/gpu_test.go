package gpu

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestScheduleSerialisesOneResource(t *testing.T) {
	s := NewSim()
	a := s.Schedule("r", "a", 0, 10)
	b := s.Schedule("r", "b", 0, 5)
	if a.Start != 0 || a.End != 10 {
		t.Errorf("a = %+v", a)
	}
	if b.Start != 10 || b.End != 15 {
		t.Errorf("b must start after a: %+v", b)
	}
	if s.Free("r") != 15 {
		t.Errorf("Free = %g", s.Free("r"))
	}
}

func TestScheduleRespectsReadiness(t *testing.T) {
	s := NewSim()
	iv := s.Schedule("r", "x", 100, 10)
	if iv.Start != 100 || iv.End != 110 {
		t.Errorf("iv = %+v", iv)
	}
	// Negative duration clamps to zero.
	z := s.Schedule("r", "z", 0, -5)
	if z.Duration() != 0 {
		t.Errorf("negative duration not clamped: %+v", z)
	}
}

func TestResourcesIndependent(t *testing.T) {
	s := NewSim()
	s.Schedule("a", "x", 0, 100)
	iv := s.Schedule("b", "y", 0, 10)
	if iv.Start != 0 {
		t.Error("resources must not serialise against each other")
	}
	if s.Horizon() != 100 {
		t.Errorf("Horizon = %g", s.Horizon())
	}
	names := s.ResourceNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ResourceNames = %v", names)
	}
}

func TestBusyTimeAndUtilization(t *testing.T) {
	s := NewSim()
	s.Schedule("r", "x", 0, 10)
	s.Schedule("r", "y", 20, 10) // idle gap 10..20
	if got := s.BusyTime("r", 0, 30); got != 20 {
		t.Errorf("BusyTime = %g, want 20", got)
	}
	if got := s.Utilization("r", 0, 30); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Utilization = %g, want 2/3", got)
	}
	// Window clipping.
	if got := s.BusyTime("r", 5, 25); got != 10 {
		t.Errorf("clipped BusyTime = %g, want 10", got)
	}
	if s.Utilization("r", 10, 10) != 0 {
		t.Error("empty window must be 0")
	}
}

func TestScheduleConcurrentSafety(t *testing.T) {
	s := NewSim()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Schedule("shared", "w", 0, 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Free("shared"); got != 3200 {
		t.Errorf("after 3200 unit ops, Free = %g", got)
	}
	if got := s.BusyTime("shared", 0, 3200); got != 3200 {
		t.Errorf("BusyTime = %g", got)
	}
}

func TestTimelineString(t *testing.T) {
	s := NewSim()
	s.Schedule("cpu", "FEED", 0, 50)
	s.Schedule("gpu", "GEN", 50, 50)
	tl := s.TimelineString(40)
	if !strings.Contains(tl, "cpu") || !strings.Contains(tl, "gpu") {
		t.Errorf("timeline missing rows:\n%s", tl)
	}
	if !strings.Contains(tl, "F") || !strings.Contains(tl, "G") {
		t.Errorf("timeline missing interval glyphs:\n%s", tl)
	}
	empty := NewSim().TimelineString(40)
	if !strings.Contains(empty, "empty") {
		t.Error("empty timeline should say so")
	}
}

func TestTeslaC1060Geometry(t *testing.T) {
	sim := NewSim()
	d, err := NewDevice(sim, TeslaC1060())
	if err != nil {
		t.Fatal(err)
	}
	if d.Cores() != 240 {
		t.Errorf("C1060 cores = %d, want 240", d.Cores())
	}
	if d.Config().WarpSize != 32 {
		t.Errorf("warp = %d", d.Config().WarpSize)
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(nil, TeslaC1060()); err == nil {
		t.Error("nil sim should fail")
	}
	bad := TeslaC1060()
	bad.SMs = 0
	if _, err := NewDevice(NewSim(), bad); err == nil {
		t.Error("zero SMs should fail")
	}
	bad = TeslaC1060()
	bad.ClockHz = 0
	if _, err := NewDevice(NewSim(), bad); err == nil {
		t.Error("zero clock should fail")
	}
	bad = TeslaC1060()
	bad.LinkBps = 0
	if _, err := NewDevice(NewSim(), bad); err == nil {
		t.Error("zero link bandwidth should fail")
	}
	bad = TeslaC1060()
	bad.LaunchNs = -1
	if _, err := NewDevice(NewSim(), bad); err == nil {
		t.Error("negative overhead should fail")
	}
	bad = TeslaC1060()
	bad.WarpSize = 0
	if _, err := NewDevice(NewSim(), bad); err == nil {
		t.Error("zero warp should fail")
	}
	if _, err := NewHost(nil, "cpu"); err == nil {
		t.Error("nil sim host should fail")
	}
}

func TestKernelDurationThroughputModel(t *testing.T) {
	d, _ := NewDevice(NewSim(), TeslaC1060())
	// 240000 threads × 1300 cycles at 240 cores × 1.3 GHz
	// = 240000·1300/(240·1.3e9) s = 1 ms; plus 5 µs launch.
	k := Kernel{Threads: 240000, CyclesPerThread: 1300}
	got := d.KernelDuration(k)
	want := 5000 + 1e6
	if math.Abs(got-want) > 1 {
		t.Errorf("duration = %g ns, want %g", got, want)
	}
}

func TestKernelDurationUnderOccupied(t *testing.T) {
	d, _ := NewDevice(NewSim(), TeslaC1060())
	// 32 threads (1 warp) can only use 32 lanes: duration is the
	// per-thread time, not total/(240).
	k := Kernel{Threads: 32, CyclesPerThread: 1.3e6} // 1 ms per thread
	got := d.KernelDuration(k)
	want := 5000.0 + 1e6
	if math.Abs(got-want) > 1 {
		t.Errorf("under-occupied duration = %g ns, want %g", got, want)
	}
	// A single thread cannot be spread over lanes: it takes the full
	// per-thread time too.
	k1 := Kernel{Threads: 1, CyclesPerThread: 1.3e6}
	if math.Abs(d.KernelDuration(k1)-want) > 1 {
		t.Errorf("single-thread duration = %g, want %g", d.KernelDuration(k1), want)
	}
	// Empty kernel costs just the launch.
	if got := d.KernelDuration(Kernel{}); got != 5000 {
		t.Errorf("empty kernel = %g, want launch only", got)
	}
}

func TestCopyDurationModel(t *testing.T) {
	d, _ := NewDevice(NewSim(), TeslaC1060())
	// 8 MB over 8 GB/s = 1 ms, plus 1 µs latency.
	got := d.CopyDuration(8 << 20)
	want := 1000 + float64(8<<20)/8e9*1e9
	if math.Abs(got-want) > 1 {
		t.Errorf("copy = %g ns, want %g", got, want)
	}
	if got := d.CopyDuration(0); got != 1000 {
		t.Errorf("zero-byte copy = %g, want latency", got)
	}
}

func TestStreamOrdersOperations(t *testing.T) {
	sim := NewSim()
	d, _ := NewDevice(sim, TeslaC1060())
	st := d.NewStream(0)
	c := st.CopyH2D("h2d", 8e6) // 1000 + 1e6 ns
	k := st.Launch(Kernel{Name: "k", Threads: 240, CyclesPerThread: 1.3e6})
	if k.Start < c.End {
		t.Errorf("kernel started at %g before its copy finished at %g", k.Start, c.End)
	}
	if st.Ready() != k.End {
		t.Errorf("stream ready %g != kernel end %g", st.Ready(), k.End)
	}
}

func TestTwoStreamsOverlapComputeAndCopy(t *testing.T) {
	// The asynchronous concurrent execution model: stream B's copy
	// runs while stream A's kernel computes.
	sim := NewSim()
	d, _ := NewDevice(sim, TeslaC1060())
	a := d.NewStream(0)
	b := d.NewStream(0)
	ka := a.Launch(Kernel{Name: "k", Threads: 240, CyclesPerThread: 13e6}) // 10 ms
	cb := b.CopyH2D("h2d", 8e6)                                            // ~1 ms
	if cb.Start >= ka.End {
		t.Errorf("copy %g..%g failed to overlap kernel %g..%g", cb.Start, cb.End, ka.Start, ka.End)
	}
	// But two kernels serialise on the compute engine.
	kb := b.Launch(Kernel{Name: "k2", Threads: 240, CyclesPerThread: 13e6})
	if kb.Start < ka.End {
		t.Errorf("kernels overlapped on one device: %g < %g", kb.Start, ka.End)
	}
}

func TestStreamWaitFor(t *testing.T) {
	sim := NewSim()
	d, _ := NewDevice(sim, TeslaC1060())
	st := d.NewStream(0)
	st.WaitFor(5000)
	iv := st.Launch(Kernel{Name: "k", Threads: 32, CyclesPerThread: 1})
	if iv.Start < 5000 {
		t.Errorf("kernel ignored WaitFor: start %g", iv.Start)
	}
	st.WaitFor(0) // must not move ready backwards
	if st.Ready() < iv.End {
		t.Error("WaitFor moved readiness backwards")
	}
}

func TestHostCompute(t *testing.T) {
	sim := NewSim()
	h, err := NewHost(sim, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if h.Resource() != "cpu" {
		t.Errorf("resource = %q", h.Resource())
	}
	a := h.Compute("feed", 0, 100)
	b := h.Compute("feed", 0, 100)
	if b.Start != a.End {
		t.Error("host work must serialise")
	}
	h2, _ := NewHost(sim, "")
	if h2.Resource() != "cpu" {
		t.Error("default host name should be cpu")
	}
}

func TestPureDeviceVsHybridScheduleShape(t *testing.T) {
	// Figure 1 in miniature: interleaving host feed with kernel
	// compute must beat the serial schedule.
	mkRun := func(overlap bool) Time {
		sim := NewSim()
		d, _ := NewDevice(sim, TeslaC1060())
		h, _ := NewHost(sim, "cpu")
		ts := d.NewStream(0) // transfer stream
		ks := d.NewStream(0) // kernel stream
		var ready Time
		for i := 0; i < 8; i++ {
			feed := h.Compute("F", ready, 1000)
			ts.WaitFor(feed.End)
			tr := ts.CopyH2D("T", 4096)
			ks.WaitFor(tr.End)
			k := ks.Launch(Kernel{Name: "G", Threads: 240, CyclesPerThread: 1300})
			if overlap {
				// Pipelined: the next feed starts as soon as this
				// one is done, overlapping the kernel.
				ready = feed.End
			} else {
				// Serial: host waits for the kernel.
				ready = k.End
			}
		}
		return sim.Horizon()
	}
	serial := mkRun(false)
	pipelined := mkRun(true)
	if pipelined >= serial {
		t.Errorf("pipelined %g ns not faster than serial %g ns", pipelined, serial)
	}
}

func TestDeviceAccessors(t *testing.T) {
	sim := NewSim()
	d, _ := NewDevice(sim, TeslaC1060())
	if d.Sim() != sim {
		t.Error("Sim accessor broken")
	}
	if d.ComputeResource() != "tesla-c1060" || d.CopyResource() != "tesla-c1060:pcie" {
		t.Errorf("resource names: %q / %q", d.ComputeResource(), d.CopyResource())
	}
	st := d.NewStream(0)
	iv := st.CopyH2D("h2d", 1000)
	if iv.Resource != d.CopyResource() {
		t.Error("H2D must use the copy engine")
	}
	tr := sim.Trace()
	if len(tr) != 1 || tr[0].Label != "h2d" {
		t.Errorf("trace = %+v", tr)
	}
}
