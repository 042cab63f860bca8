package hybrid

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
)

// CPUReport summarises a real (wall-clock) CPU-backend run — the
// paper's Figure 6 experiment, where the hybrid generator runs on
// the multicore CPU alone (OpenMP in the paper, goroutines here) and
// is compared against serial glibc rand().
type CPUReport struct {
	Generator   string
	N           int
	Workers     int           // goroutine walkers used
	Wall        time.Duration // measured wall time
	PerNumberNs float64       // Wall / N
	HostCores   int           // GOMAXPROCS at run time
}

func (r CPUReport) String() string {
	return fmt.Sprintf("%s: N=%d workers=%d wall=%v (%.1f ns/number, %d host cores)",
		r.Generator, r.N, r.Workers, r.Wall, r.PerNumberNs, r.HostCores)
}

// ProjectedWallNs linearly rescales the measured wall time from the
// machine's real core count to a hypothetical `cores`-core host.
// The projection is sound for this workload because walkers share
// nothing (the paper's thread-safety argument); it is used to report
// the Figure 6 shape on hosts with fewer cores than the paper's
// 6-core i7.
func (r CPUReport) ProjectedWallNs(cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	effective := r.HostCores
	if r.Workers < effective {
		effective = r.Workers
	}
	if effective < 1 {
		effective = 1
	}
	return float64(r.Wall.Nanoseconds()) * float64(effective) / float64(cores)
}

// GenerateCPU runs the hybrid generator entirely on the CPU: workers
// independent walkers, each fed by its own glibc-rand bit stream,
// filling dst cooperatively. It returns the measured report. dst may
// be nil to time generation without keeping the numbers (a length
// must then be provided via n).
func GenerateCPU(n int, workers int, cfg core.Config, seed uint64) (CPUReport, []uint64, error) {
	if n < 1 {
		return CPUReport{}, nil, fmt.Errorf("hybrid: n = %d < 1", n)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws := make([]*core.Walker, workers)
	for i := range ws {
		w, err := core.NewWalker(bitsource.Glibc(uint32(baselines.Mix64(seed+uint64(i)))), cfg)
		if err != nil {
			return CPUReport{}, nil, err
		}
		ws[i] = w
	}
	dst := make([]uint64, n)
	startT := time.Now() //lint:wallclock benchmark wall-clock timing is the measurement itself
	core.FillSplit(ws, dst)
	wall := time.Since(startT) //lint:wallclock benchmark wall-clock timing is the measurement itself
	return CPUReport{
		Generator:   "hybrid-prng (cpu)",
		N:           n,
		Workers:     workers,
		Wall:        wall,
		PerNumberNs: float64(wall.Nanoseconds()) / float64(n),
		HostCores:   runtime.GOMAXPROCS(0),
	}, dst, nil
}

// GenerateGlibcSerial produces n 64-bit numbers from the serial
// glibc rand() re-implementation — the Figure 6 baseline. (glibc's
// rand() is not thread safe, so its honest parallel speedup is 1.)
func GenerateGlibcSerial(n int, seed uint32) (CPUReport, []uint64, error) {
	if n < 1 {
		return CPUReport{}, nil, fmt.Errorf("hybrid: n = %d < 1", n)
	}
	g := baselines.NewGlibcRand(seed)
	dst := make([]uint64, n)
	startT := time.Now() //lint:wallclock benchmark wall-clock timing is the measurement itself
	for i := range dst {
		dst[i] = g.Uint64()
	}
	wall := time.Since(startT) //lint:wallclock benchmark wall-clock timing is the measurement itself
	return CPUReport{
		Generator:   "glibc rand() (serial)",
		N:           n,
		Workers:     1,
		Wall:        wall,
		PerNumberNs: float64(wall.Nanoseconds()) / float64(n),
		HostCores:   runtime.GOMAXPROCS(0),
	}, dst, nil
}
