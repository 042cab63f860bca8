package hybrid

import (
	"fmt"

	"repro/internal/gpu"
)

// Report summarises one simulated generation run.
type Report struct {
	Generator string
	N         int64    // numbers generated
	BlockSize int      // numbers per thread (the paper's S)
	Threads   int      // GPU threads used
	SimNs     gpu.Time // total simulated time
	CPUUtil   float64  // host busy fraction over the run
	GPUUtil   float64  // device busy fraction over the run
	LinkUtil  float64  // PCIe busy fraction over the run

	// Per-number steady-state costs (ns), for the Figure 4 style
	// work-unit report.
	FeedNsPerNumber     float64
	TransferNsPerNumber float64
	GenNsPerNumber      float64
}

// ThroughputGNs returns the achieved rate in GNumbers/s.
func (r Report) ThroughputGNs() float64 {
	if r.SimNs <= 0 {
		return 0
	}
	return float64(r.N) / r.SimNs
}

func (r Report) String() string {
	return fmt.Sprintf("%s: N=%d S=%d T=%d time=%.3f ms rate=%.4f GN/s cpu=%.0f%% gpu=%.0f%% link=%.0f%%",
		r.Generator, r.N, r.BlockSize, r.Threads, r.SimNs/1e6, r.ThroughputGNs(),
		100*r.CPUUtil, 100*r.GPUUtil, 100*r.LinkUtil)
}

// Platform bundles the simulated machine for one experiment run.
type Platform struct {
	Sim    *gpu.Sim
	Device *gpu.Device
	Host   *gpu.Host
	Model  CostModel
}

// NewPlatform builds a fresh simulated paper platform (i7 + Tesla
// C1060) with the given cost model.
func NewPlatform(model CostModel) (*Platform, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	sim := gpu.NewSim()
	dev, err := gpu.NewDevice(sim, gpu.TeslaC1060())
	if err != nil {
		return nil, err
	}
	host, err := gpu.NewHost(sim, "cpu")
	if err != nil {
		return nil, err
	}
	return &Platform{Sim: sim, Device: dev, Host: host, Model: model}, nil
}

// Pipeline books the paper's overlapped schedule (Figures 1 and 4) on
// a platform: the host FEEDs chunk i+1 while the link TRANSFERs it and
// the device GENERATEs chunk i. Copies run in order on one stream and
// kernels on another, so a kernel waits for its own chunk's copy but
// not for the next chunk's feed.
type Pipeline struct {
	p        *Platform
	start    gpu.Time
	hostFree gpu.Time // earliest start of the host's next feed
	copies   *gpu.Stream
	kernels  *gpu.Stream
}

// Pipeline starts a schedule at the platform's current horizon.
func (p *Platform) Pipeline() *Pipeline {
	start := p.Sim.Horizon()
	return &Pipeline{p: p, start: start, hostFree: start,
		copies: p.Device.NewStream(start), kernels: p.Device.NewStream(start)}
}

// Chunk books one chunk: the host feeds `bytes` at bps bytes per
// second plus the model's per-chunk overhead, the copy stream moves
// them to the device, and k runs on the kernel stream once they have
// landed. It returns the kernel's interval.
func (pl *Pipeline) Chunk(bytes int64, bps float64, k gpu.Kernel) gpu.Interval {
	f := pl.p.Host.Compute("F", pl.hostFree, pl.p.Model.FeedChunkOverheadNs+float64(bytes)/bps*1e9)
	pl.hostFree = f.End // the host moves straight on to the next chunk
	pl.copies.WaitFor(f.End)
	pl.kernels.WaitFor(pl.copies.CopyH2D("T", bytes).End)
	return pl.kernels.Launch(k)
}

// Launch books a kernel that needs no feed on the kernel stream.
func (pl *Pipeline) Launch(k gpu.Kernel) gpu.Interval { return pl.kernels.Launch(k) }

// Usage returns the schedule's length so far and the busy fractions of
// the host, the device's compute engine and its link over it.
func (pl *Pipeline) Usage() (ns gpu.Time, host, device, link float64) {
	s, end := pl.p.Sim, pl.p.Sim.Horizon()
	return end - pl.start, s.Utilization(pl.p.Host.Resource(), pl.start, end),
		s.Utilization(pl.p.Device.ComputeResource(), pl.start, end),
		s.Utilization(pl.p.Device.CopyResource(), pl.start, end)
}

// GenerateHybrid simulates generating n numbers with the hybrid
// expander-walk PRNG at block size s (each of the n/s threads
// produces s numbers). It books the full FEED/TRANSFER/GENERATE
// pipeline on the platform and returns the timing report — the
// engine behind Figures 1, 3, 4 and 5.
func (p *Platform) GenerateHybrid(n int64, s int) (Report, error) {
	if n < 1 {
		return Report{}, fmt.Errorf("hybrid: n = %d < 1", n)
	}
	if s < 1 {
		return Report{}, fmt.Errorf("hybrid: block size %d < 1", s)
	}
	m := p.Model
	threads := int(n / int64(s))
	if threads < 1 {
		threads = 1
	}
	pl := p.Pipeline()

	// Phase 0 — Algorithm 1: the host produces the seed bits for all
	// threads, ships them, and the device runs the mixing-walk
	// kernel.
	pl.Chunk(int64(m.FeedBytesPerInit()*float64(threads)), m.FeedBytesPerSec,
		gpu.Kernel{Name: "G:init", Threads: threads, CyclesPerThread: m.InitCyclesPerThread()})

	// Phases 1..⌈n/threads⌉ — Algorithm 2, pipelined: while the device
	// walks iteration i, the host produces and ships the bits for
	// iteration i+1. Each iteration generates one number per thread.
	perIterBytes := int64(m.FeedBytesPerNumber() * float64(threads))
	for remaining := n; remaining > 0; {
		batch := min(int64(threads), remaining)
		remaining -= batch
		pl.Chunk(perIterBytes, m.FeedBytesPerSec,
			gpu.Kernel{Name: "G", Threads: int(batch), CyclesPerThread: m.GenCyclesPerNumber()})
	}

	cores := float64(p.Device.Cores())
	clock := p.Device.Config().ClockHz
	effThreads := float64(threads)
	if effThreads > cores {
		effThreads = cores
	}
	rep := Report{
		Generator: "hybrid-prng",
		N:         n,
		BlockSize: s,
		Threads:   threads,

		FeedNsPerNumber:     m.FeedBytesPerNumber() / m.FeedBytesPerSec * 1e9,
		TransferNsPerNumber: m.FeedBytesPerNumber() / p.Device.Config().LinkBps * 1e9,
		// Device-wide per-number generation time:
		// cycles / (clock · min(threads, cores)).
		GenNsPerNumber: m.GenCyclesPerNumber() / (effThreads * clock) * 1e9,
	}
	rep.SimNs, rep.CPUUtil, rep.GPUUtil, rep.LinkUtil = pl.Usage()
	return rep, nil
}

// GenerateMTBatch simulates the SDK Mersenne Twister batch
// generator: a one-off setup, then a single device kernel producing
// all n numbers into device memory (the pre-generate-and-store model
// the paper criticises).
func (p *Platform) GenerateMTBatch(n int64) (Report, error) {
	return p.deviceOnly("mersenne-twister", "mt", n, p.Model.MTSetupNs, p.Model.MTBatchCyclesPerNumber)
}

// GenerateCurandDevice simulates the CURAND device API (XORWOW) in
// its on-demand mode: curand_init once, then one state load +
// generate + state store per number.
func (p *Platform) GenerateCurandDevice(n int64) (Report, error) {
	return p.deviceOnly("curand-device", "curand", n, p.Model.CurandSetupNs, p.Model.CurandDeviceCyclesPerNumber)
}

// deviceOnly books a generator the host plays no part in: a setup
// kernel of setupNs on every core, then one kernel that produces all n
// numbers at cyclesPerNumber each over a fully occupied grid.
func (p *Platform) deviceOnly(generator, kernel string, n int64, setupNs, cyclesPerNumber float64) (Report, error) {
	if n < 1 {
		return Report{}, fmt.Errorf("hybrid: n = %d < 1", n)
	}
	pl := p.Pipeline()
	pl.Launch(gpu.Kernel{Name: kernel + ":setup", Threads: p.Device.Cores(), CyclesPerThread: setupNs / 1e9 * p.Device.Config().ClockHz})
	threads := p.Device.Cores() * 128 // fully occupied batch grid
	if int64(threads) > n {
		threads = int(n)
	}
	per := float64(n) / float64(threads)
	pl.Launch(gpu.Kernel{Name: kernel + ":gen", Threads: threads, CyclesPerThread: per * cyclesPerNumber})
	rep := Report{Generator: generator, N: n, BlockSize: int(per), Threads: threads}
	rep.SimNs, rep.CPUUtil, rep.GPUUtil, rep.LinkUtil = pl.Usage()
	return rep, nil
}

// PureDeviceSerialHybrid simulates the strawman of Figure 1's left
// half: the same hybrid workload but with no overlap — the host
// produces each chunk only after the previous kernel completes.
func (p *Platform) PureDeviceSerialHybrid(n int64, s int) (Report, error) {
	if n < 1 || s < 1 {
		return Report{}, fmt.Errorf("hybrid: bad n=%d s=%d", n, s)
	}
	m := p.Model
	threads := int(n / int64(s))
	if threads < 1 {
		threads = 1
	}
	pl := p.Pipeline()
	perIterBytes := int64(m.FeedBytesPerNumber() * float64(threads))
	for remaining := n; remaining > 0; {
		batch := min(int64(threads), remaining)
		remaining -= batch
		k := pl.Chunk(perIterBytes, m.FeedBytesPerSec,
			gpu.Kernel{Name: "G", Threads: int(batch), CyclesPerThread: m.GenCyclesPerNumber()})
		pl.hostFree = k.End // serial: the host waits for the device
	}
	rep := Report{Generator: "hybrid-serial (no overlap)", N: n, BlockSize: s, Threads: threads}
	rep.SimNs, rep.CPUUtil, rep.GPUUtil, rep.LinkUtil = pl.Usage()
	return rep, nil
}
