// Package hybrid implements the paper's hybrid CPU+GPU runtime: the
// FEED (CPU bit production), TRANSFER (PCIe) and GENERATE (GPU
// expander walks) work units, pipelined over the simulated platform
// of internal/gpu, plus the pure-CPU goroutine backend that the
// paper's Figure 6 measures for real.
//
// Pipeline books one chunk of FEED → TRANSFER → GENERATE at a time.
// Every simulated figure that feeds the device goes through it: this
// package's generators (Figures 1 and 3–5), listrank's Figure 7 and
// photon's Figure 8.
//
// # Cost model calibration
//
// The simulated constants are calibrated so the model reproduces the
// paper's published operating point, then everything else (Figures
// 1, 3, 4, 5, 7, 8 shapes) follows from the schedule rather than
// from further tuning:
//
//   - GenCyclesPerStep = 56: one expander-walk step on the Tesla
//     C1060 (integer ops + a strided read of the feed bits). With
//     the paper's 64-step walks this makes the device's peak
//     generation rate 240·1.3 GHz / (64·56) ≈ 87 M numbers/s.
//   - FeedBytesPerSec = 1.7 GB/s: the i7's multicore glibc-rand bit
//     production. Each number needs 3·64 bits = 24 B of feed, so the
//     CPU can feed ≈ 71 M numbers/s — the bottleneck, giving the
//     paper's headline ≈ 0.07 GNumbers/s and its "CPU never idle,
//     GPU ≈ 20% idle" utilisation split (71/87 ≈ 0.81).
//   - The link moves those 24 B/number over 8 GB/s (PCIe 2.0),
//     ≈ 21% link utilisation — transfer is never the bottleneck,
//     matching the paper's tiny TRANSFER arrows in Figure 4.
//   - MTBatchCyclesPerNumber and CurandDeviceCyclesPerNumber are
//     set from the paper's Figure 3 ratio (hybrid ≈ 2× faster):
//     both baselines pay global-memory round trips per number — the
//     SDK Mersenne Twister sample stores its batch to device memory
//     and re-reads it, and the CURAND device API loads and stores
//     its 48-byte XORWOW state around every call.
package hybrid

import "fmt"

// CostModel holds the simulated-platform constants.
type CostModel struct {
	// WalkLen is the per-number walk length l (64 in the paper).
	WalkLen int
	// InitWalkLen is the Algorithm 1 mixing walk length.
	InitWalkLen int
	// GenCyclesPerStep is the GPU cost of one walk step.
	GenCyclesPerStep float64
	// ThreadSetupCycles is the fixed per-thread kernel prologue.
	ThreadSetupCycles float64
	// FeedBytesPerSec is the CPU's random-byte production rate.
	FeedBytesPerSec float64
	// FeedChunkOverheadNs is the fixed host cost per produced chunk
	// (buffer management, OpenMP fork/join in the paper's code).
	FeedChunkOverheadNs float64

	// MTBatchCyclesPerNumber is the per-number device cost of the
	// SDK Mersenne Twister batch generator.
	MTBatchCyclesPerNumber float64
	// MTSetupNs is the twister's one-off seeding/table cost.
	MTSetupNs float64
	// CurandDeviceCyclesPerNumber is the per-number cost of the
	// CURAND device API (XORWOW with per-call state load/store).
	CurandDeviceCyclesPerNumber float64
	// CurandSetupNs is curand_init's cost (state setup kernel).
	CurandSetupNs float64
}

// DefaultCostModel returns the calibration described in the package
// comment.
func DefaultCostModel() CostModel {
	return CostModel{
		WalkLen:             64,
		InitWalkLen:         64,
		GenCyclesPerStep:    56,
		ThreadSetupCycles:   200,
		FeedBytesPerSec:     1.7e9,
		FeedChunkOverheadNs: 2000,

		MTBatchCyclesPerNumber:      9000,
		MTSetupNs:                   200000,
		CurandDeviceCyclesPerNumber: 9600,
		CurandSetupNs:               150000,
	}
}

func (m CostModel) validate() error {
	if m.WalkLen < 1 || m.InitWalkLen < 0 {
		return fmt.Errorf("hybrid: bad walk lengths %d/%d", m.WalkLen, m.InitWalkLen)
	}
	if m.GenCyclesPerStep <= 0 || m.FeedBytesPerSec <= 0 {
		return fmt.Errorf("hybrid: non-positive rates")
	}
	if m.ThreadSetupCycles < 0 || m.FeedChunkOverheadNs < 0 {
		return fmt.Errorf("hybrid: negative overheads")
	}
	return nil
}

// FeedBytesPerNumber returns the feed traffic per generated number:
// 3 bits per walk step.
func (m CostModel) FeedBytesPerNumber() float64 {
	return float64(3*m.WalkLen) / 8
}

// FeedBytesPerInit returns the feed traffic to initialise one
// walker: 64 start bits plus 3 bits per mixing step.
func (m CostModel) FeedBytesPerInit() float64 {
	return float64(64+3*m.InitWalkLen) / 8
}

// GenCyclesPerNumber returns the GPU cycles to produce one number.
func (m CostModel) GenCyclesPerNumber() float64 {
	return float64(m.WalkLen) * m.GenCyclesPerStep
}

// InitCyclesPerThread returns the GPU cycles to initialise one
// walker.
func (m CostModel) InitCyclesPerThread() float64 {
	return m.ThreadSetupCycles + float64(m.InitWalkLen)*m.GenCyclesPerStep
}
