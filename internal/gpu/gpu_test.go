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
	if s.Horizon() != 15 {
		t.Errorf("Horizon = %g", s.Horizon())
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
	if z.End != z.Start {
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
	if got := s.Horizon(); got != 3200 {
		t.Errorf("after 3200 unit ops, Horizon = %g", got)
	}
	if got := s.BusyTime("shared", 0, 3200); got != 3200 {
		t.Errorf("BusyTime = %g", got)
	}
}

func TestTimelineString(t *testing.T) {
	s := NewSim()
	s.Schedule("cpu", "FEED", 0, 50)
	s.Schedule("gpu", "GEN", 50, 50)
	s.Schedule("gpu:pcie-link", "TRANSFER", 25, 25)
	tl := s.TimelineString(40)
	if !strings.Contains(tl, "cpu") || !strings.Contains(tl, "gpu") {
		t.Errorf("timeline missing rows:\n%s", tl)
	}
	if !strings.Contains(tl, "F") || !strings.Contains(tl, "G") || !strings.Contains(tl, "T") {
		t.Errorf("timeline missing interval glyphs:\n%s", tl)
	}
	// Every row's bar starts in the same column, whatever the length
	// of its resource name.
	rows := strings.Split(strings.TrimSuffix(tl, "\n"), "\n")
	rows = rows[:len(rows)-1] // the horizon line
	for _, row := range rows[1:] {
		if strings.Index(row, "|") != strings.Index(rows[0], "|") {
			t.Errorf("bars start in different columns:\n%s", tl)
			break
		}
	}
	empty := NewSim().TimelineString(40)
	if !strings.Contains(empty, "empty") {
		t.Error("empty timeline should say so")
	}
}

func TestTeslaC1060Geometry(t *testing.T) {
	d := TeslaC1060()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Cores() != 240 {
		t.Errorf("C1060 cores = %d, want 240", d.Cores())
	}
	// Figure 1's timeline prints these row names.
	if d.ComputeResource() != "tesla-c1060" || d.CopyResource() != "tesla-c1060:pcie" {
		t.Errorf("resource names: %q / %q", d.ComputeResource(), d.CopyResource())
	}
}

func TestDeviceValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.SMs = 0 }},
		{"zero clock", func(c *Config) { c.ClockHz = 0 }},
		{"zero link bandwidth", func(c *Config) { c.LinkBps = 0 }},
		{"negative overhead", func(c *Config) { c.LaunchNs = -1 }},
	} {
		bad := TeslaC1060()
		c.edit(&bad)
		if bad.Validate() == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestKernelDurationThroughputModel(t *testing.T) {
	d := TeslaC1060()
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
	d := TeslaC1060()
	// 32 threads can only use 32 lanes: duration is the
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
	d := TeslaC1060()
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
