package hybrid

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
)

func TestDefaultCostModelValid(t *testing.T) {
	m := DefaultCostModel()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if m.FeedBytesPerNumber() != 24 {
		t.Errorf("feed bytes/number = %g, want 24 (3·64 bits)", m.FeedBytesPerNumber())
	}
	if m.FeedBytesPerInit() != 32 {
		t.Errorf("feed bytes/init = %g, want 32 (64+192 bits)", m.FeedBytesPerInit())
	}
	if m.GenCyclesPerNumber() != 64*56 {
		t.Errorf("gen cycles/number = %g", m.GenCyclesPerNumber())
	}
}

func TestCostModelValidation(t *testing.T) {
	bad := DefaultCostModel()
	bad.WalkLen = 0
	if _, err := NewPlatform(bad); err == nil {
		t.Error("zero walk length should fail")
	}
	bad = DefaultCostModel()
	bad.FeedBytesPerSec = 0
	if _, err := NewPlatform(bad); err == nil {
		t.Error("zero feed rate should fail")
	}
	bad = DefaultCostModel()
	bad.ThreadSetupCycles = -1
	if _, err := NewPlatform(bad); err == nil {
		t.Error("negative overhead should fail")
	}
}

func TestHeadlineThroughput(t *testing.T) {
	// The paper's headline: ≈ 0.07 GNumbers/s at the favourable
	// block size. Accept 0.05–0.09.
	p, err := NewPlatform(DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.GenerateHybrid(10_000_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rate := rep.ThroughputGNs(); rate < 0.05 || rate > 0.09 {
		t.Errorf("throughput = %.4f GN/s, want ≈ 0.07", rate)
	}
}

func TestFigure4UtilisationSplit(t *testing.T) {
	// Paper: at block size 100 the CPU is almost never idle and the
	// GPU idles ≈ 20% of each iteration.
	p, _ := NewPlatform(DefaultCostModel())
	rep, err := p.GenerateHybrid(10_000_000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPUUtil < 0.90 {
		t.Errorf("CPU utilisation = %.2f, want ≥ 0.90 (paper: never idle)", rep.CPUUtil)
	}
	if rep.GPUUtil < 0.65 || rep.GPUUtil > 0.95 {
		t.Errorf("GPU utilisation = %.2f, want ≈ 0.80 (paper: ~20%% idle)", rep.GPUUtil)
	}
	if rep.LinkUtil > 0.5 {
		t.Errorf("link utilisation = %.2f; transfer should never be the bottleneck", rep.LinkUtil)
	}
	// Work-unit per-number costs: feed dominates, transfer is tiny.
	if rep.TransferNsPerNumber >= rep.FeedNsPerNumber {
		t.Error("transfer per number should be far below feed per number")
	}
	if rep.GenNsPerNumber >= rep.FeedNsPerNumber {
		t.Error("at S=100 the CPU feed should be the bottleneck")
	}
}

func TestFigure3HybridBeatsBaselinesByAboutTwo(t *testing.T) {
	for _, n := range []int64{5_000_000, 20_000_000, 100_000_000} {
		ph, _ := NewPlatform(DefaultCostModel())
		hyb, err := ph.GenerateHybrid(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		pm, _ := NewPlatform(DefaultCostModel())
		mt, err := pm.GenerateMTBatch(n)
		if err != nil {
			t.Fatal(err)
		}
		pc, _ := NewPlatform(DefaultCostModel())
		cu, err := pc.GenerateCurandDevice(n)
		if err != nil {
			t.Fatal(err)
		}
		rMT := mt.SimNs / hyb.SimNs
		rCU := cu.SimNs / hyb.SimNs
		if rMT < 1.5 || rMT > 3.0 {
			t.Errorf("N=%d: MT/hybrid = %.2f, want ≈ 2", n, rMT)
		}
		if rCU < 1.5 || rCU > 3.0 {
			t.Errorf("N=%d: CURAND/hybrid = %.2f, want ≈ 2", n, rCU)
		}
	}
}

func TestFigure3TimeGrowsLinearly(t *testing.T) {
	p1, _ := NewPlatform(DefaultCostModel())
	a, _ := p1.GenerateHybrid(5_000_000, 100)
	p2, _ := NewPlatform(DefaultCostModel())
	b, _ := p2.GenerateHybrid(50_000_000, 100)
	ratio := b.SimNs / a.SimNs
	if ratio < 8 || ratio > 12 {
		t.Errorf("10× the numbers took %.1f× the time; expect ≈ linear", ratio)
	}
}

func TestFigure5BlockSizeUShape(t *testing.T) {
	// Fixed N, sweep S: the curve must dip to a minimum at a
	// moderate block size (paper: ≈ 100) and rise on both sides.
	const n = 10_000_000
	sweep := []int{1, 10, 100, 1000, 100000}
	times := make([]float64, len(sweep))
	for i, s := range sweep {
		p, _ := NewPlatform(DefaultCostModel())
		rep, err := p.GenerateHybrid(n, s)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = rep.SimNs
	}
	// Identify the minimum.
	minIdx := 0
	for i, v := range times {
		if v < times[minIdx] {
			minIdx = i
		}
	}
	if sweep[minIdx] < 10 || sweep[minIdx] > 1000 {
		t.Errorf("minimum at S=%d, want a moderate block size (times=%v)", sweep[minIdx], times)
	}
	if times[0] <= times[minIdx]*1.2 {
		t.Errorf("S=1 should be clearly slower than the optimum: %v", times)
	}
	if times[len(times)-1] <= times[minIdx]*1.2 {
		t.Errorf("huge S should be clearly slower than the optimum: %v", times)
	}
}

func TestFigure1OverlapBeatsSerial(t *testing.T) {
	const n = 2_000_000
	ph, _ := NewPlatform(DefaultCostModel())
	overlapped, err := ph.GenerateHybrid(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := NewPlatform(DefaultCostModel())
	serial, err := ps.PureDeviceSerialHybrid(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.SimNs >= serial.SimNs {
		t.Errorf("overlap %g ns not faster than serial %g ns", overlapped.SimNs, serial.SimNs)
	}
	// The serial schedule must show a visibly idle CPU.
	if serial.CPUUtil >= overlapped.CPUUtil {
		t.Errorf("serial CPU util %.2f should be below overlapped %.2f", serial.CPUUtil, overlapped.CPUUtil)
	}
}

// TestSerialBooksShortLastBatch: at (2,000,007, 100) the grid has
// 20,000 threads, more than the device's 240 cores, and the last batch
// holds 7 numbers. Both schedules run the same generation kernels, so
// the serial schedule keeps the device busy exactly as long as the
// overlapped one less its init kernel.
func TestSerialBooksShortLastBatch(t *testing.T) {
	const n, s = 2_000_007, 100
	busy := func(p *Platform) gpu.Time {
		return p.Sim.BusyTime(p.Device.ComputeResource(), 0, p.Sim.Horizon())
	}
	ph, _ := NewPlatform(DefaultCostModel())
	if _, err := ph.GenerateHybrid(n, s); err != nil {
		t.Fatal(err)
	}
	ps, _ := NewPlatform(DefaultCostModel())
	if _, err := ps.PureDeviceSerialHybrid(n, s); err != nil {
		t.Fatal(err)
	}
	init := ph.Device.KernelDuration(gpu.Kernel{Threads: n / s, CyclesPerThread: ph.Model.InitCyclesPerThread()})
	want := busy(ph) - init
	if got := busy(ps); math.Abs(got-want) > 1e-9*want {
		t.Errorf("serial device busy %v ns, want %v (overlapped %v less init %v)", got, want, busy(ph), init)
	}
}

// TestPipelineOrdering checks the three booking rules of Figures 1 and
// 4 over a mix of fed chunks and feedless launches, on a platform whose
// clock is already past zero: the host feeds chunk after chunk without
// a gap, a copy starts no earlier than its own feed's end and the
// previous copy's end, and a kernel starts no earlier than its copy's
// end and the previous kernel's end.
func TestPipelineOrdering(t *testing.T) {
	p, err := NewPlatform(DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.GenerateMTBatch(1000); err != nil {
		t.Fatal(err)
	}
	// free reports when a resource is next free: a zero-length booking
	// with no dependency starts there and moves nothing.
	free := func(res string) gpu.Time { return p.Sim.Schedule(res, "probe", 0, 0).Start }
	host, link, m := "cpu", p.Device.CopyResource(), p.Model
	start := p.Sim.Horizon()
	pl := p.Pipeline()
	feedEnd, copyEnd, kernelEnd := start, start, start
	for i, c := range []struct {
		bytes   int64   // fed bytes; 0 launches a kernel that needs no feed
		bps     float64 // feed rate, bytes per second
		threads int
	}{
		{0, 0, 240},                          // a launch before any chunk
		{1 << 20, m.FeedBytesPerSec, 20_000}, // the copy waits for its feed
		{8 << 20, 1e12, 240},                 // a fast feed, then a long copy
		{1 << 10, 1e12, 240},                 // this copy queues behind it
		{0, 0, 100_000},                      // a long feedless kernel
		{1 << 10, m.FeedBytesPerSec, 7},      // this kernel queues behind it
		{4 << 20, m.FeedBytesPerSec, 50_000},
		{0, 0, 1},
	} {
		k := gpu.Kernel{Name: "G", Threads: c.threads, CyclesPerThread: m.GenCyclesPerNumber()}
		if c.bytes == 0 {
			h, l := free(host), free(link)
			iv := pl.Launch(k)
			if iv.Start < kernelEnd {
				t.Errorf("step %d: launch starts at %v, before the previous kernel's end %v", i, iv.Start, kernelEnd)
			}
			if free(host) != h || free(link) != l {
				t.Errorf("step %d: a launch booked host or link time", i)
			}
			kernelEnd = iv.End
			continue
		}
		iv := pl.Chunk(c.bytes, c.bps, k)
		want := feedEnd + (m.FeedChunkOverheadNs + float64(c.bytes)/c.bps*1e9)
		if got := free(host); got != want {
			t.Errorf("step %d: feed ends at %v, want %v (right after the previous feed)", i, got, want)
		}
		feedEnd = free(host)
		// Adding a duration is monotonic in float64, so a copy that
		// starts at or after lo ends at or after lo plus its duration.
		lo := max(feedEnd, copyEnd)
		if got := free(link); got < lo+p.Device.CopyDuration(c.bytes) {
			t.Errorf("step %d: copy ends at %v, so it started before max(feed end, previous copy end) = %v", i, got, lo)
		}
		copyEnd = free(link)
		if lo := max(copyEnd, kernelEnd); iv.Start < lo {
			t.Errorf("step %d: kernel starts at %v, before max(copy end, previous kernel end) = %v", i, iv.Start, lo)
		}
		kernelEnd = iv.End
	}
}

func TestGenerateValidation(t *testing.T) {
	p, _ := NewPlatform(DefaultCostModel())
	if _, err := p.GenerateHybrid(0, 100); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := p.GenerateHybrid(100, 0); err == nil {
		t.Error("s=0 should fail")
	}
	if _, err := p.GenerateMTBatch(0); err == nil {
		t.Error("mt n=0 should fail")
	}
	if _, err := p.GenerateCurandDevice(0); err == nil {
		t.Error("curand n=0 should fail")
	}
	if _, err := p.PureDeviceSerialHybrid(0, 1); err == nil {
		t.Error("serial n=0 should fail")
	}
}

func TestReportString(t *testing.T) {
	p, _ := NewPlatform(DefaultCostModel())
	rep, _ := p.GenerateHybrid(1000, 10)
	if rep.String() == "" || rep.N != 1000 {
		t.Error("report looks empty")
	}
	if rep.ThroughputGNs() <= 0 {
		t.Error("throughput must be positive")
	}
	zero := Report{}
	if zero.ThroughputGNs() != 0 {
		t.Error("zero report should have zero throughput")
	}
}

func TestGenerateCPUProducesRealNumbers(t *testing.T) {
	rep, nums, err := GenerateCPU(10000, 2, core.Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 10000 || len(nums) != 10000 {
		t.Fatalf("report/numbers mismatch: %d/%d", rep.N, len(nums))
	}
	if rep.Wall <= 0 || rep.PerNumberNs <= 0 {
		t.Error("wall time not measured")
	}
	// Distinctness: 10k draws from a 64-bit space.
	seen := make(map[uint64]bool, len(nums))
	for _, v := range nums {
		if seen[v] {
			t.Fatal("duplicate output")
		}
		seen[v] = true
	}
	// Determinism across runs.
	_, nums2, err := GenerateCPU(10000, 2, core.Config{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nums {
		if nums[i] != nums2[i] {
			t.Fatal("CPU generation not reproducible")
		}
	}
	if _, _, err := GenerateCPU(0, 1, core.Config{}, 1); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestGenerateGlibcSerial(t *testing.T) {
	rep, nums, err := GenerateGlibcSerial(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nums) != 5000 || rep.Workers != 1 {
		t.Fatalf("bad report %+v", rep)
	}
	if _, _, err := GenerateGlibcSerial(0, 1); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestProjectedWallNs(t *testing.T) {
	rep := CPUReport{Workers: 4, HostCores: 1}
	rep.Wall = 600 * 1e6 // 600 ms in ns… time.Duration is ns-based
	got := rep.ProjectedWallNs(6)
	want := float64(rep.Wall.Nanoseconds()) / 6
	if math.Abs(got-want) > 1 {
		t.Errorf("projection = %g, want %g", got, want)
	}
	if rep.ProjectedWallNs(0) != float64(rep.Wall.Nanoseconds()) {
		t.Error("cores<1 should clamp to 1")
	}
}

func TestReportStrings(t *testing.T) {
	rep, _, err := GenerateGlibcSerial(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Error("CPUReport string empty")
	}
}
