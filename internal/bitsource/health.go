package bitsource

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/rng"
)

// The paper's conclusion points at cryptographic applications as
// future work. A prerequisite for any entropy-consuming deployment
// is continuous health testing of the raw source; this file
// implements the two online health tests of NIST SP 800-90B §4.4 —
// the Repetition Count Test and the Adaptive Proportion Test —
// applied to the feed stream's bytes. A Monitor wraps any source
// and trips permanently when either test fails, which a consumer
// must treat as a broken feed.

// HealthError reports a tripped health test.
type HealthError struct {
	Test   string // "repetition-count" or "adaptive-proportion"
	Detail string
}

func (e *HealthError) Error() string {
	return fmt.Sprintf("bitsource: health test %s failed: %s", e.Test, e.Detail)
}

// Monitor wraps a Source with the SP 800-90B continuous health
// tests over the stream's bytes. After a failure the monitor is
// tripped: Uint64 keeps returning values (the interface cannot
// error) but Err reports the failure and Tripped is true — callers
// must check Err at their consumption boundary.
//
// The tests are defined byte by byte. FillWords draws a block of words
// from the source — a walker's whole bin at a time — and screens it up
// to the end of each APT window in one pass: a segment in which no byte
// can trip commits its end state directly. Any other segment, and the
// one word Uint64 draws, takes the exact path: a whole feed word at
// once whenever the monitor can prove the per-byte loop would neither
// trip nor start or end a window inside the word, and the per-byte
// loop for every other word. Trip points, failure text and marshalled
// state are therefore exactly those of checking each byte in turn.
//
// Drawing (Uint64, FillWords) is single-consumer like every Source in
// this repository, but Err, Tripped and Stats are safe to call from
// any goroutine concurrently with draws — the serving layer polls them
// from health endpoints while shards keep generating.
type Monitor struct {
	src rng.Source

	// Repetition count test state.
	lastByte byte
	repeats  int
	rctBound int

	// Adaptive proportion test state.
	aptSample  byte
	aptCount   int
	aptWindow  int
	aptSeen    int
	aptBound   int
	haveSample bool

	err atomic.Pointer[HealthError]
}

// NewMonitor wraps src with health tests calibrated for a source
// claiming `hMin` bits of min-entropy per byte (use 8 for a full-
// entropy feed, less for a weak one — the paper's glibc feed is
// nowhere near full entropy, so callers wrapping it should claim
// conservatively, e.g. 4). The false-positive rate per test is
// 2^-30, the SP 800-90B recommendation. The cutoffs for a given hMin
// are computed once per process and shared by every later monitor.
func NewMonitor(src rng.Source, hMin float64) (*Monitor, error) {
	if src == nil {
		return nil, fmt.Errorf("bitsource: nil source")
	}
	if !(hMin > 0 && hMin <= 8) { // rejects NaN too, which <=/> chains let through
		return nil, fmt.Errorf("bitsource: claimed min-entropy %g outside (0, 8]", hMin)
	}
	c := calibrate(hMin)
	return &Monitor{
		src:       src,
		rctBound:  c.rct,
		aptWindow: aptWindow,
		aptBound:  c.apt,
	}, nil
}

// aptWindow is the APT window in bytes.
const aptWindow = 512

// calibration is the pair of integer cutoffs a claimed hMin implies.
type calibration struct{ rct, apt int }

// maxCalibrations bounds the cutoff cache. Real callers claim one or
// two hMin values per process; past the bound (a fuzzer sweeping
// claims) cutoffs are still computed, just not kept.
const maxCalibrations = 64

// calibrations memoises calibrate. An entry is a pure function of its
// key and never changes once stored, so sharing the cache across
// pools, tenants and tests couples nothing.
var (
	calibrationsMu sync.Mutex
	calibrations   = map[float64]calibration{}
)

// calibrate returns hMin's cutoffs, computing them on first use. The
// APT cutoff costs about 1,300 Lgamma calls at hMin 4, which would
// otherwise be paid again by every pool shard and every tenant.
func calibrate(hMin float64) calibration {
	calibrationsMu.Lock()
	defer calibrationsMu.Unlock()
	if c, ok := calibrations[hMin]; ok {
		return c
	}
	const alphaExp = 30 // α = 2^-30
	c := calibration{
		// RCT cutoff: 1 + ⌈30 / hMin⌉.
		rct: 1 + int(math.Ceil(alphaExp/hMin)),
		// APT cutoff over the window: smallest c with
		// P[Binomial(512, 2^-hMin) ≥ c] ≤ 2^-30; the standard's
		// CRITBINOM. Computed here by direct summation.
		apt: critBinom(aptWindow, math.Exp2(-hMin), math.Exp2(-alphaExp)),
	}
	if len(calibrations) < maxCalibrations {
		calibrations[hMin] = c
	}
	return c
}

// critBinom returns the smallest cutoff c such that
// P[Binomial(n, p) ≥ c] ≤ alpha.
func critBinom(n int, p, alpha float64) int {
	// Walk the pmf from the top until the tail exceeds alpha.
	tail := 0.0
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	lnFact := func(k int) float64 {
		l, _ := math.Lgamma(float64(k) + 1)
		return l
	}
	for c := n; c >= 0; c-- {
		lpmf := lnFact(n) - lnFact(c) - lnFact(n-c) + float64(c)*logP + float64(n-c)*logQ
		tail += math.Exp(lpmf)
		if tail > alpha {
			return c + 1
		}
	}
	return 0
}

// trip records the first failure.
func (m *Monitor) trip(test, detail string) {
	m.err.CompareAndSwap(nil, &HealthError{Test: test, Detail: detail})
}

// Err returns the first health failure, or nil.
func (m *Monitor) Err() error {
	if e := m.err.Load(); e != nil {
		return e
	}
	return nil
}

// Tripped reports whether a health test has failed.
func (m *Monitor) Tripped() bool { return m.err.Load() != nil }

// ForceTrip trips the monitor as if a health test had failed —
// fault injection for operational drills and for testing the
// degradation paths of consumers (a tripped monitor is sticky, so a
// forced trip after a real failure is a no-op).
func (m *Monitor) ForceTrip(detail string) { m.trip("forced", detail) }

// Stats is a point-in-time snapshot of a Monitor's calibration and
// trip state.
type Stats struct {
	Tripped   bool
	Failure   string // empty until tripped
	RCTCutoff int
	APTCutoff int
	APTWindow int
}

// Stats returns the monitor's calibration and trip state. Unlike the
// test counters themselves, everything here is immutable or atomic,
// so Stats is safe to call while another goroutine draws.
func (m *Monitor) Stats() Stats {
	s := Stats{
		RCTCutoff: m.rctBound,
		APTCutoff: m.aptBound,
		APTWindow: m.aptWindow,
	}
	if e := m.err.Load(); e != nil {
		s.Tripped = true
		s.Failure = e.Error()
	}
	return s
}

// Uint64 draws a word and feeds its bytes, low byte first, through
// both health tests on the exact path.
func (m *Monitor) Uint64() uint64 {
	w := [1]uint64{m.src.Uint64()}
	if m.checkWords(w[:]) == 0 {
		m.checkBytes(w[0])
	}
	return w[0]
}

// FillWords draws len(dst) words from the wrapped source in one block
// (rng.FillWords) and then checks them, leaving the tests exactly as
// len(dst) Uint64 calls would (rng.BlockSource).
func (m *Monitor) FillWords(dst []uint64) {
	rng.FillWords(m.src, dst)
	m.check(dst)
}

// check feeds ws's bytes, word by word and low byte first, through
// both health tests, a segment at a time: screen clears most segments
// in one branch-free pass, and a segment it refuses takes the exact
// path — runs of words through checkWords, and each word checkWords
// refuses through checkBytes.
func (m *Monitor) check(ws []uint64) {
	for len(ws) > 0 {
		n, ok := m.screen(ws)
		seg := ws[:n]
		ws = ws[n:]
		for !ok && len(seg) > 0 {
			seg = seg[m.checkWords(seg):]
			if len(seg) > 0 {
				m.checkBytes(seg[0])
				seg = seg[1:]
			}
		}
	}
}

// screen checks the segment at the start of ws — the words up to the
// end of the current APT window, at most 64 — and returns its length
// and whether it committed the segment's end state. It commits when no
// byte of the segment can trip a test:
//
//   - RCT: no three equal bytes in a row, counting the run carried in,
//     so every run stays at most 2, below a cutoff of 3 or more. A
//     byte is flagged when it equals the one before it; two flagged
//     bytes in a row, across word boundaries too, are a triple.
//   - APT: the window's count at the end of the segment is below the
//     cutoff. The count only grows within a window, so no byte reached
//     the cutoff. The bytes equal to the sample are summed in byte
//     lanes, at most 64 per lane, and the lanes added once at the end.
//
// One accumulator holds both: the sums in the low seven bits of each
// byte lane, which they never overflow, and the triple flags ORed into
// the top bits, so the loop keeps its state in registers.
//
// The end state is then that of the per-byte loop: the last byte, a run
// of 1 or 2 from its flag, the window's sample (byte 0 when the segment
// opens the window), count and position. A monitor without its first
// sample, with a window or position not a multiple of 8, with a
// position at the window's end (only restored state has one) or with
// an RCT cutoff below 3 is not screened: screen returns all of ws,
// unchecked.
func (m *Monitor) screen(ws []uint64) (int, bool) {
	if !m.haveSample || m.aptWindow%8 != 0 || m.aptSeen%8 != 0 || m.rctBound < 3 || m.aptSeen >= m.aptWindow {
		return len(ws), false
	}
	n := min(len(ws), (m.aptWindow-m.aptSeen)/8, 64)
	seg := ws[:n]
	pat, count := uint64(m.aptSample)*bytesOf1, m.aptCount
	if m.aptSeen == 0 {
		pat, count = seg[0]&0xFF*bytesOf1, 0
	}
	last, prevRep := uint64(m.lastByte), uint64(0)
	if m.repeats >= 2 {
		prevRep = 1 << 63
	}
	var acc uint64
	for _, v := range seg {
		rep := zeroByteMask(v ^ (v<<8 | last))
		acc = (acc + zeroByteMask(v^pat)>>7) | rep&(rep<<8|prevRep>>56)
		last, prevRep = v>>56, rep
	}
	same := acc & bytesOf7F
	same = same&0x00FF00FF00FF00FF + same>>8&0x00FF00FF00FF00FF
	if count += int(same * 0x0001000100010001 >> 48); acc&bytesOf80 != 0 || count >= m.aptBound {
		return n, false
	}
	m.lastByte, m.repeats = byte(last), 1+int(prevRep>>63)
	m.aptSample, m.aptCount = byte(pat), count
	if m.aptSeen += 8 * n; m.aptSeen == m.aptWindow {
		m.aptSeen = 0 // start a new window on the next byte
	}
	return n, true
}

// checkBytes feeds v's bytes, low byte first, through checkByte.
func (m *Monitor) checkBytes(v uint64) {
	for i := 0; i < 8; i++ {
		m.checkByte(byte(v >> (8 * i)))
	}
}

// checkWords checks whole words, eight bytes at a time, from the start
// of ws for as long as that provably matches the per-byte loop, and
// returns how many it checked. A word qualifies when the monitor has
// its first sample and the APT window either continues through the
// whole word or opens at its byte 0, without ending before the last
// byte. Then
//
//   - RCT: flag each byte equal to the one before it (lastByte carried
//     in). No run can reach the cutoff while the carried run (at least
//     one) plus the flagged bytes stays below it. The run carried out
//     is one plus the top run of flagged bytes, or the carried run plus
//     eight when every byte is flagged.
//   - APT: a word that opens a window takes byte 0 as the sample. The
//     count grows by the word's bytes equal to the sample (byte 0
//     counting itself when it opens the window), and staying below the
//     cutoff means no byte could have tripped.
//
// checkWords stops at the first word that could trip a test, or whose
// window ends or starts mid-word; check runs that word byte by byte.
// Keeping the per-byte calls out of this loop keeps its state in
// registers.
func (m *Monitor) checkWords(ws []uint64) int {
	if !m.haveSample {
		return 0
	}
	// Only the loop-carried state lives in locals; the cutoffs and the
	// window are read from m where used, which keeps register pressure
	// (and stack spills) down.
	last, run := uint64(m.lastByte), m.repeats
	pat, count, seen := uint64(m.aptSample)*bytesOf1, m.aptCount, m.aptSeen
	i := 0
	for ; i < len(ws); i++ {
		v := ws[i]
		if seen+8 > m.aptWindow {
			break
		}
		p, c := pat, count
		if seen == 0 { // the word opens a window at byte 0
			p, c = v&0xFF*bytesOf1, 0
		}
		if c += flagged(zeroByteMask(v ^ p)); c >= m.aptBound {
			break
		}
		r := 1
		if rep := zeroByteMask(v ^ (v<<8 | last)); rep != 0 {
			if max(run, 1)+flagged(rep) >= m.rctBound {
				break
			}
			if rep == bytesOf80 {
				r = run + 8
			} else {
				r = 1 + bits.LeadingZeros64(^rep&bytesOf80)/8
			}
		}
		last, run, pat, count = v>>56, r, p, c
		if seen += 8; seen >= m.aptWindow {
			seen = 0 // start a new window on the next byte
		}
	}
	m.lastByte, m.repeats = byte(last), run
	m.aptSample, m.aptCount, m.aptSeen = byte(pat), count, seen
	return i
}

const (
	bytesOf1  = 0x0101010101010101
	bytesOf7F = 0x7F7F7F7F7F7F7F7F
	bytesOf80 = 0x8080808080808080
)

// zeroByteMask returns x with the top bit of each zero byte set and
// every other bit clear. Adding 0x7F to a byte's low seven bits carries
// into its top bit unless they are all zero, so no carry crosses a byte
// and the mask is exact.
func zeroByteMask(x uint64) uint64 {
	return ^((x&bytesOf7F + bytesOf7F) | x | bytesOf7F)
}

// flagged counts the bytes a zeroByteMask result flags. The multiply
// sums the eight 0/1 byte flags into the top byte; bits.OnesCount64
// would compile to a CPU-feature branch and a call fallback at the
// module's default GOAMD64=v1.
func flagged(mask uint64) int {
	return int((mask >> 7) * bytesOf1 >> 56)
}

func (m *Monitor) checkByte(b byte) {
	// Repetition count test.
	if m.haveSample && b == m.lastByte {
		m.repeats++
		if m.repeats >= m.rctBound {
			m.trip("repetition-count",
				fmt.Sprintf("byte %#02x repeated %d times (cutoff %d)", b, m.repeats, m.rctBound))
		}
	} else {
		m.lastByte = b
		m.repeats = 1
	}
	// Adaptive proportion test.
	if !m.haveSample {
		m.aptSample = b
		m.aptCount = 1
		m.aptSeen = 1
		m.haveSample = true
		return
	}
	if m.aptSeen == 0 {
		m.aptSample = b
		m.aptCount = 1
		m.aptSeen = 1
		return
	}
	m.aptSeen++
	if b == m.aptSample {
		m.aptCount++
		if m.aptCount >= m.aptBound {
			m.trip("adaptive-proportion",
				fmt.Sprintf("byte %#02x appeared %d times in a %d-byte window (cutoff %d)",
					b, m.aptCount, m.aptWindow, m.aptBound))
		}
	}
	if m.aptSeen >= m.aptWindow {
		m.aptSeen = 0 // start a new window on the next byte
	}
}

// RCTCutoff and APTCutoff expose the calibrated bounds (for tests
// and reporting).
func (m *Monitor) RCTCutoff() int { return m.rctBound }
func (m *Monitor) APTCutoff() int { return m.aptBound }

// Source returns the wrapped raw source, so checkpointing code can
// serialise the underlying feed separately from the monitor's own
// test state.
func (m *Monitor) Source() rng.Source { return m.src }

// Rearm returns a fresh monitor over src with the same calibration
// (cutoffs and window) as m but clean test counters and no trip
// state — the monitor a recovered shard puts in front of its reseeded
// feed. The receiver is left untouched.
func (m *Monitor) Rearm(src rng.Source) (*Monitor, error) {
	if src == nil {
		return nil, fmt.Errorf("bitsource: nil source")
	}
	return &Monitor{
		src:       src,
		rctBound:  m.rctBound,
		aptWindow: m.aptWindow,
		aptBound:  m.aptBound,
	}, nil
}

// Monitor state serialisation. A checkpointed generator must restore
// its health tests exactly: the calibration (cutoffs, window), the
// in-flight test counters, and — crucially — the trip state, so a
// feed that failed SP 800-90B before the snapshot stays failed after
// restore. The wrapped source is NOT part of the blob; callers
// serialise it separately and pass it to RestoreMonitor.
//
// Format (versioned, little-endian):
//
//	tag 'M' | version | rctBound u32 | aptWindow u32 | aptBound u32
//	| lastByte u8 | repeats u32 | aptSample u8 | aptCount u32
//	| aptSeen u32 | haveSample u8 | tripped u8
//	| [testLen u16 | test | detailLen u16 | detail]  (tripped only)
const (
	monitorTag     = 'M'
	monitorVersion = 1

	// monitorMaxBound caps decoded calibration values and counters so
	// a forged blob cannot smuggle in absurd state. Real cutoffs are
	// tiny (RCT ≤ 31, APT ≤ 512 for any valid hMin).
	monitorMaxBound = 1 << 20
)

// MarshalBinary encodes the monitor's calibration, test counters and
// trip state. Not safe to call concurrently with Uint64 draws; the
// caller must hold whatever lock serialises drawing.
func (m *Monitor) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	out := append(make([]byte, 0, 64), monitorTag, monitorVersion) // 30 fixed bytes and a short failure record
	out = le.AppendUint32(out, uint32(m.rctBound))
	out = le.AppendUint32(out, uint32(m.aptWindow))
	out = le.AppendUint32(out, uint32(m.aptBound))
	out = append(out, m.lastByte)
	out = le.AppendUint32(out, uint32(m.repeats))
	out = append(out, m.aptSample)
	out = le.AppendUint32(out, uint32(m.aptCount))
	out = le.AppendUint32(out, uint32(m.aptSeen))
	out = blob.AppendBool(out, m.haveSample)
	e := m.err.Load()
	out = blob.AppendBool(out, e != nil)
	if e != nil {
		if len(e.Test) > 0xFFFF || len(e.Detail) > 0xFFFF {
			return nil, fmt.Errorf("bitsource: monitor detail too long (%d and %d bytes)", len(e.Test), len(e.Detail))
		}
		out = blob.AppendBytes16(blob.AppendBytes16(out, e.Test), e.Detail)
	}
	return out, nil
}

// RestoreMonitor rebuilds a monitor over src from a blob written by
// MarshalBinary. A tripped monitor restores tripped.
func RestoreMonitor(src rng.Source, data []byte) (*Monitor, error) {
	if src == nil {
		return nil, fmt.Errorf("bitsource: nil source")
	}
	r := blob.NewReader(data, "bitsource: monitor state")
	if tag, version := r.Byte(), r.Byte(); r.Err() == nil && (tag != monitorTag || version != monitorVersion) {
		return nil, fmt.Errorf("bitsource: monitor state tag %#x version %d, want %#x version %d", tag, version, monitorTag, monitorVersion)
	}
	m := &Monitor{src: src}
	rct, window, apt := r.Uint32(), r.Uint32(), r.Uint32()
	m.lastByte = r.Byte()
	repeats := r.Uint32()
	m.aptSample = r.Byte()
	count, seen := r.Uint32(), r.Uint32()
	m.haveSample = r.Bool()
	if r.Bool() {
		test := string(r.Bytes16())
		m.err.Store(&HealthError{Test: test, Detail: string(r.Bytes16())})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if rct < 1 || rct > monitorMaxBound || window < 1 || window > monitorMaxBound || apt < 1 || apt > monitorMaxBound {
		return nil, fmt.Errorf("bitsource: monitor RCT cutoff %d, APT window %d or APT cutoff %d outside [1, %d]", rct, window, apt, monitorMaxBound)
	}
	if repeats > monitorMaxBound || count > monitorMaxBound || seen > window {
		return nil, fmt.Errorf("bitsource: monitor counters out of range")
	}
	m.rctBound, m.aptWindow, m.aptBound = int(rct), int(window), int(apt)
	m.repeats, m.aptCount, m.aptSeen = int(repeats), int(count), int(seen)
	return m, nil
}
