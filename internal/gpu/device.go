package gpu

import (
	"fmt"
	"sync"
)

// Config describes the simulated platform: device geometry, clock,
// per-launch overhead and the host link.
type Config struct {
	Name        string
	SMs         int     // streaming multiprocessors
	CoresPerSM  int     // scalar processors per SM
	WarpSize    int     // threads per warp
	ClockHz     float64 // SP clock
	LaunchNs    float64 // fixed kernel launch overhead, ns
	LinkBps     float64 // PCIe bandwidth, bytes per second
	LinkLatency float64 // per-transfer latency, ns
}

// TeslaC1060 returns the paper's device: 30 SMs × 8 SPs (240 cores)
// at 1.3 GHz, warps of 32, behind a PCIe 2.0 ×16 link (8 GB/s) —
// Section II of the paper.
func TeslaC1060() Config {
	return Config{
		Name:        "tesla-c1060",
		SMs:         30,
		CoresPerSM:  8,
		WarpSize:    32,
		ClockHz:     1.3e9,
		LaunchNs:    5000, // ~5 µs driver launch overhead, CUDA 3.x era
		LinkBps:     8e9,  // PCIe 2.0 ×16
		LinkLatency: 1000, // ~1 µs DMA setup
	}
}

func (c Config) validate() error {
	if c.SMs < 1 || c.CoresPerSM < 1 {
		return fmt.Errorf("gpu: need at least one SM and one core, got %d×%d", c.SMs, c.CoresPerSM)
	}
	if c.WarpSize < 1 {
		return fmt.Errorf("gpu: warp size %d < 1", c.WarpSize)
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

// Device is a simulated GPU bound to a Sim. Its compute engine and
// its copy engine are two serial resources (the C1060 has a single
// DMA engine), so kernels serialise against kernels, copies against
// copies, and the two overlap — exactly the asynchronous concurrent
// execution model the paper exploits.
type Device struct {
	sim *Sim
	cfg Config

	computeRes string
	copyRes    string
}

// NewDevice attaches a simulated device to sim.
func NewDevice(sim *Sim, cfg Config) (*Device, error) {
	if sim == nil {
		return nil, fmt.Errorf("gpu: nil sim")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "gpu"
	}
	return &Device{
		sim:        sim,
		cfg:        cfg,
		computeRes: cfg.Name,
		copyRes:    cfg.Name + ":pcie",
	}, nil
}

// Cores returns the total scalar processor count.
func (d *Device) Cores() int { return d.cfg.SMs * d.cfg.CoresPerSM }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Sim returns the simulation the device is bound to.
func (d *Device) Sim() *Sim { return d.sim }

// ComputeResource and CopyResource name the device's resources in
// the trace.
func (d *Device) ComputeResource() string { return d.computeRes }
func (d *Device) CopyResource() string    { return d.copyRes }

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
// Figure 5); warp granularity rounds the effective thread count up
// to a warp multiple.
func (d *Device) KernelDuration(k Kernel) Time {
	if k.Threads <= 0 || k.CyclesPerThread <= 0 {
		return d.cfg.LaunchNs
	}
	parallel := d.Cores()
	if k.Threads < parallel {
		// Under-occupied grid: surplus lanes idle and the launch
		// takes the per-thread time (a single thread cannot be
		// spread over lanes).
		parallel = k.Threads
	}
	totalCycles := k.CyclesPerThread * float64(k.Threads)
	seconds := totalCycles / (float64(parallel) * d.cfg.ClockHz)
	return d.cfg.LaunchNs + seconds*1e9
}

// CopyDuration returns the simulated time to move `bytes` across the
// link.
func (d *Device) CopyDuration(bytes int64) Time {
	if bytes <= 0 {
		return d.cfg.LinkLatency
	}
	return d.cfg.LinkLatency + float64(bytes)/d.cfg.LinkBps*1e9
}

// Stream is a CUDA-style stream: operations issued on it run in
// issue order, each starting no earlier than the previous one
// finished, while contending for the device's engines against other
// streams.
type Stream struct {
	d     *Device
	ready Time
	mu    sync.Mutex //lint:lockorder before Sim.mu stream ops serialise their own issue order, then book engine time on the shared simulator; Sim never calls back into a stream
}

// NewStream creates a stream whose first operation may start no
// earlier than `after`.
func (d *Device) NewStream(after Time) *Stream {
	return &Stream{d: d, ready: after}
}

// Ready returns the completion time of the stream's last issued
// operation.
func (st *Stream) Ready() Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ready
}

// WaitFor delays the stream's next operation until at least t — the
// analogue of making a kernel wait for host-produced data.
func (st *Stream) WaitFor(t Time) {
	st.mu.Lock()
	if t > st.ready {
		st.ready = t
	}
	st.mu.Unlock()
}

// CopyH2D issues an asynchronous host-to-device copy and returns its
// interval.
func (st *Stream) CopyH2D(label string, bytes int64) Interval {
	return st.copy(label, bytes)
}

func (st *Stream) copy(label string, bytes int64) Interval {
	st.mu.Lock()
	defer st.mu.Unlock()
	iv := st.d.sim.Schedule(st.d.copyRes, label, st.ready, st.d.CopyDuration(bytes))
	st.ready = iv.End
	return iv
}

// Launch issues kernel k on the stream and returns the simulated
// interval of the launch.
func (st *Stream) Launch(k Kernel) Interval {
	st.mu.Lock()
	defer st.mu.Unlock()
	label := k.Name
	if label == "" {
		label = "kernel"
	}
	iv := st.d.sim.Schedule(st.d.computeRes, label, st.ready, st.d.KernelDuration(k))
	st.ready = iv.End
	return iv
}

// Host models the CPU side as one more serial resource on the same
// simulation clock.
type Host struct {
	sim *Sim
	res string
}

// NewHost returns a host timeline named `name` (e.g. "cpu").
func NewHost(sim *Sim, name string) (*Host, error) {
	if sim == nil {
		return nil, fmt.Errorf("gpu: nil sim")
	}
	if name == "" {
		name = "cpu"
	}
	return &Host{sim: sim, res: name}, nil
}

// Resource names the host row in the trace.
func (h *Host) Resource() string { return h.res }

// Compute books `dur` nanoseconds of host work starting no earlier
// than `ready` and returns the interval.
func (h *Host) Compute(label string, ready Time, dur Time) Interval {
	return h.sim.Schedule(h.res, label, ready, dur)
}
