package gpu

import "fmt"

// Config is the simulated device's price list: its geometry and clock
// price kernels, and its host link prices copies.
type Config struct {
	Name        string  // the compute engine's resource name; the link's adds ":pcie"
	SMs         int     // streaming multiprocessors
	CoresPerSM  int     // scalar processors per SM
	ClockHz     float64 // SP clock
	LaunchNs    float64 // fixed kernel launch overhead, ns
	LinkBps     float64 // PCIe bandwidth, bytes per second
	LinkLatency float64 // per-transfer latency, ns
}

// TeslaC1060 returns the paper's device: 30 SMs × 8 SPs (240 cores)
// at 1.3 GHz, behind a PCIe 2.0 ×16 link (8 GB/s) — Section II of the
// paper.
func TeslaC1060() Config {
	return Config{
		Name:        "tesla-c1060",
		SMs:         30,
		CoresPerSM:  8,
		ClockHz:     1.3e9,
		LaunchNs:    5000, // ~5 µs driver launch overhead, CUDA 3.x era
		LinkBps:     8e9,  // PCIe 2.0 ×16
		LinkLatency: 1000, // ~1 µs DMA setup
	}
}

// Validate reports a configuration that cannot price a kernel or a
// copy.
func (c Config) Validate() error {
	if c.SMs < 1 || c.CoresPerSM < 1 {
		return fmt.Errorf("gpu: need at least one SM and one core, got %d×%d", c.SMs, c.CoresPerSM)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("gpu: clock %g Hz", c.ClockHz)
	}
	if c.LinkBps <= 0 {
		return fmt.Errorf("gpu: link bandwidth %g B/s", c.LinkBps)
	}
	if c.LaunchNs < 0 || c.LinkLatency < 0 {
		return fmt.Errorf("gpu: negative overheads")
	}
	return nil
}

// Cores returns the total scalar processor count.
func (c Config) Cores() int { return c.SMs * c.CoresPerSM }

// ComputeResource and CopyResource name the device's two serial
// resources in a Sim: kernels serialise against kernels and copies
// against copies (the C1060 has a single DMA engine), and the two
// overlap.
func (c Config) ComputeResource() string { return c.Name }
func (c Config) CopyResource() string    { return c.Name + ":pcie" }

// Kernel describes one launch.
type Kernel struct {
	Name    string
	Threads int // total thread count across the grid

	// CyclesPerThread is the simulated cost of one thread. The
	// kernel's duration is a throughput model:
	//
	//	LaunchNs + Threads·CyclesPerThread / (min(Threads, cores)·clock)
	//
	// See KernelDuration.
	CyclesPerThread float64
}

// KernelDuration returns the simulated execution time of k:
// the launch overhead plus total cycles divided by the deliverable
// parallelism. When the grid has fewer threads than cores the
// surplus cores idle (the paper's "GPU starts to wait" regime in
// Figure 5).
func (c Config) KernelDuration(k Kernel) Time {
	if k.Threads <= 0 || k.CyclesPerThread <= 0 {
		return c.LaunchNs
	}
	parallel := c.Cores()
	if k.Threads < parallel {
		// Under-occupied grid: surplus lanes idle and the launch
		// takes the per-thread time (a single thread cannot be
		// spread over lanes).
		parallel = k.Threads
	}
	totalCycles := k.CyclesPerThread * float64(k.Threads)
	seconds := totalCycles / (float64(parallel) * c.ClockHz)
	return c.LaunchNs + seconds*1e9
}

// CopyDuration returns the simulated time to move `bytes` across the
// link.
func (c Config) CopyDuration(bytes int64) Time {
	if bytes <= 0 {
		return c.LinkLatency
	}
	return c.LinkLatency + float64(bytes)/c.LinkBps*1e9
}
