package bitsource

import (
	"encoding/binary"
	"fmt"
	"math"
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
// The tests are defined byte by byte, and the monitor checks them two
// ways. screen checks a block of words in one pass across its APT
// window edges and commits the block's end state when no byte in it
// can trip. FillWords screens the block it draws (a walker's whole bin
// at a time) and halves a refused block, down to pieces under 32 words.
// The per-byte loop checks the monitor's first word, which draws the
// first sample, and each single word screen refuses. Trip points,
// failure text and marshalled state are therefore exactly those of
// checking each byte in turn. The state has one shape: a 512-byte APT
// window, a position on a word boundary inside it, and an RCT cutoff of
// 3 or more, which every claim gives; RestoreMonitor refuses any other.
//
// Drawing (Uint64, FillWords) is single-consumer like every Source in
// this repository, but Err and Tripped are safe to call from any
// goroutine concurrently with draws — the serving layer polls them
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
	if err := CheckClaim(hMin); err != nil {
		return nil, err
	}
	c := calibrate(hMin)
	return &Monitor{src: src, rctBound: c.rct, aptBound: c.apt}, nil
}

// HMinFloor, about 2.86e-5, is the weakest claim a monitor takes: its
// RCT cutoff, 1 + ⌈30/HMinFloor⌉, is 2^20, the largest RestoreMonitor
// takes. A weaker claim is refused rather than its cutoff clamped.
const HMinFloor = 30.0 / (monitorMaxBound - 1)

// CheckClaim refuses a min-entropy claim outside [HMinFloor, 8].
func CheckClaim(hMin float64) error {
	if !(hMin >= HMinFloor && hMin <= 8) { // rejects NaN too, which <=/> chains let through
		return fmt.Errorf("bitsource: claimed min-entropy %g outside [%g, 8]", hMin, HMinFloor)
	}
	return nil
}

// aptWindow is every monitor's APT window in bytes.
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

// Uint64 draws a word and feeds its bytes, low byte first, through
// both health tests: screen's one-word case, or the per-byte loop for
// the monitor's first word and a word screen refuses.
func (m *Monitor) Uint64() uint64 {
	w := [1]uint64{m.src.Uint64()}
	if !m.haveSample || !m.screen(w[:]) {
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
// both health tests. The monitor's first word takes the per-byte loop,
// which draws the first sample, and the rest is bisected.
func (m *Monitor) check(ws []uint64) {
	if len(ws) > 0 && !m.haveSample {
		m.checkBytes(ws[0])
		ws = ws[1:]
	}
	m.bisect(ws)
}

// bisectMin is the shortest block bisect halves; a refused block under
// it is checked word by word.
const bisectMin = 32

// bisect screens ws and, when screen refuses it, halves it and checks
// each half from the state the one before it left. The first half is a
// multiple of four words, so the second starts on a four-word group
// boundary when ws does. A refused piece under bisectMin words (one
// holding a triple, a count near the cutoff, or closed windows whose
// sum passes it) goes word by word: screen over the one word, else the
// per-byte loop.
func (m *Monitor) bisect(ws []uint64) {
	if m.screen(ws) {
		return
	}
	if len(ws) < bisectMin {
		for i := range ws {
			if !m.screen(ws[i : i+1]) {
				m.checkBytes(ws[i])
			}
		}
		return
	}
	h := len(ws) / 2 &^ 3
	m.bisect(ws[:h])
	m.bisect(ws[h:])
}

// screen checks all of ws in one pass and commits its end state, that
// of the per-byte loop, when no byte of ws can trip a test:
//
//   - RCT: no three equal bytes in a row, counting the run carried in,
//     so every run stays at most 2, below a cutoff of 3 or more.
//   - APT: each window's count, at its end or ws's, is below the
//     cutoff. The count only grows within a window, so no byte
//     reached the cutoff.
//
// The state is carried through ws in locals: at each window edge the
// opening word's byte 0 becomes the sample and the count restarts, and
// the RCT run carries straight across. When the edges fall on four-word
// group boundaries, the whole groups take one screenGroups pass, which
// walks the edges itself and bounds the windows it closes by their sum
// with the count carried in; other words take one scan per window part
// of at most 64 words. One word inside a window, as Uint64 draws, takes
// scanWords' step inline, its eight sample flags summed by one multiply.
// A refused block commits nothing. The monitor must have its first
// sample.
func (m *Monitor) screen(ws []uint64) bool {
	if len(ws) == 0 {
		return true
	}
	last, rep := uint64(m.lastByte), uint64(0)
	if m.repeats >= 2 {
		rep = 1 << 63
	}
	pat, count, seen := uint64(m.aptSample)*bytesOf1, m.aptCount, m.aptSeen
	if len(ws) == 1 && seen != 0 { // one word that opens no window: scanWords' step
		v := ws[0]
		r := zeroByteMask(v ^ (v<<8 | last))
		if count += int(zeroByteMask(v^pat) >> 7 * bytesOf1 >> 56); r&(r<<8|rep>>56) != 0 || count >= m.aptBound {
			return false
		}
		if seen += 8; seen == aptWindow {
			seen = 0 // start a new window on the next byte
		}
		m.lastByte, m.repeats = byte(v>>56), 1+int(r>>63)
		m.aptCount, m.aptSeen = count, seen
		return true
	}
	if seen == 0 { // ws[0] opens a window
		pat, count = ws[0]&0xFF*bytesOf1, 0
	}
	i := 0
	if g, w, e := len(ws)/4, aptWindow/32, (aptWindow-seen)/32; haveAVX2 && seen%32 == 0 && g > 0 && g <= 255 {
		i = 4 * g
		same, before, triple := screenGroups(ws[:i], pat, last<<56, rep, e, w)
		seen += 32 * g
		if e < g { // windows opened in the groups: e becomes the last edge
			for e+w < g {
				e += w
			}
			pat, count, before = ws[4*e]&0xFF*bytesOf1, 0, before+count
			seen = 32 * (g - e)
		}
		if count += same; triple || before >= m.aptBound || count >= m.aptBound {
			return false
		}
		v := ws[i-1]
		last, rep = v>>56, zeroByteMask(v^v<<8)
		if seen == aptWindow {
			seen = 0 // start a new window on the next byte
		}
	}
	for i < len(ws) {
		if seen == 0 { // ws[i] opens a window
			pat, count = ws[i]&0xFF*bytesOf1, 0
		}
		n := min(len(ws)-i, (aptWindow-seen)/8, 64)
		same, triple, l, r := scan(ws[i:i+n], pat, last, rep)
		if count += same; triple || count >= m.aptBound {
			return false
		}
		last, rep, i = l, r, i+n
		if seen += 8 * n; seen == aptWindow {
			seen = 0 // start a new window on the next byte
		}
	}
	m.lastByte, m.repeats = byte(last), 1+int(rep>>63)
	m.aptSample, m.aptCount, m.aptSeen = byte(pat), count, seen
	return true
}

// scan is screen's pass over seg, at most 64 words, within one window.
// It returns how many of seg's bytes equal the sample pat holds in
// every byte, whether a byte of seg ends three equal bytes in a row,
// and the last byte and run flag after seg. The run carried in is
// last, the byte before seg[0], and rep's top bit, set when last equals
// the byte before it. On AVX2 hosts the whole groups of four words take
// the vector loop (screenGroups), and the words after them scanWords,
// from the run the groups leave.
func scan(seg []uint64, pat, last, rep uint64) (int, bool, uint64, uint64) {
	g := len(seg) &^ 3
	if !haveAVX2 || g == 0 {
		return scanWords(seg, pat, last, rep)
	}
	same, _, triple := screenGroups(seg[:g], pat, last<<56, rep, g, g)
	v := seg[g-1]
	tailSame, tailTriple, last, rep := scanWords(seg[g:], pat, v>>56, zeroByteMask(v^v<<8))
	return same + tailSame, triple || tailTriple, last, rep
}

// scanWords is scan's word loop, with the same results. A byte is
// flagged when it equals the one before it; two flagged bytes in a row,
// across word boundaries too, are a triple. The bytes equal to the
// sample are summed in byte lanes, at most 64 per lane, and the lanes
// added once at the end. One accumulator holds both: the sums in the
// low seven bits of each byte lane, which they never overflow, and the
// triple flags ORed into the top bits, so the loop keeps its state in
// registers.
func scanWords(seg []uint64, pat, last, rep uint64) (int, bool, uint64, uint64) {
	var acc uint64
	for _, v := range seg {
		r := zeroByteMask(v ^ (v<<8 | last))
		acc = (acc + zeroByteMask(v^pat)>>7) | r&(r<<8|rep>>56)
		last, rep = v>>56, r
	}
	same := acc & bytesOf7F
	same = same&0x00FF00FF00FF00FF + same>>8&0x00FF00FF00FF00FF
	return int(same * 0x0001000100010001 >> 48), acc&bytesOf80 != 0, last, rep
}

// checkBytes feeds v's bytes, low byte first, through checkByte.
func (m *Monitor) checkBytes(v uint64) {
	for i := 0; i < 8; i++ {
		m.checkByte(byte(v >> (8 * i)))
	}
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

// checkByte feeds one byte through both tests. A trip keeps the first
// failure, so a monitor that has tripped builds no failure text: every
// byte of a stuck feed reaches a cutoff.
func (m *Monitor) checkByte(b byte) {
	// Repetition count test.
	if m.haveSample && b == m.lastByte {
		m.repeats++
		if m.repeats >= m.rctBound && !m.Tripped() {
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
		if m.aptCount >= m.aptBound && !m.Tripped() {
			m.trip("adaptive-proportion",
				fmt.Sprintf("byte %#02x appeared %d times in a %d-byte window (cutoff %d)",
					b, m.aptCount, aptWindow, m.aptBound))
		}
	}
	if m.aptSeen >= aptWindow {
		m.aptSeen = 0 // start a new window on the next byte
	}
}

// Source returns the wrapped raw source, so checkpointing code can
// serialise the underlying feed separately from the monitor's own
// test state.
func (m *Monitor) Source() rng.Source { return m.src }

// Rearm returns a fresh monitor over src with the same cutoffs as m but clean test counters and no trip
// state — the monitor a recovered shard puts in front of its reseeded
// feed. The receiver is left untouched.
func (m *Monitor) Rearm(src rng.Source) (*Monitor, error) {
	if src == nil {
		return nil, fmt.Errorf("bitsource: nil source")
	}
	return &Monitor{src: src, rctBound: m.rctBound, aptBound: m.aptBound}, nil
}

// Monitor state serialisation. A checkpointed generator must restore
// its health tests exactly: the cutoffs, the in-flight test counters, and — crucially — the trip state, so a
// feed that failed SP 800-90B before the snapshot stays failed after
// restore. The wrapped source is NOT part of the blob; callers
// serialise it separately and pass it to RestoreMonitor.
//
// Format (versioned, little-endian):
//
//	tag 'M' | version | rctBound u32 | aptWindow u32 (512) | aptBound u32
//	| lastByte u8 | repeats u32 | aptSample u8 | aptCount u32
//	| aptSeen u32 | haveSample u8 | tripped u8
//	| [testLen u16 | test | detailLen u16 | detail]  (tripped only)
const (
	monitorTag     = 'M'
	monitorVersion = 1

	// monitorMaxBound caps decoded cutoffs and counters so a forged
	// blob cannot smuggle in absurd state. A claim of HMinFloor gives
	// the largest RCT cutoff, 2^20; APT cutoffs are at most 513.
	monitorMaxBound = 1 << 20
)

// MarshalBinary encodes the monitor's calibration, test counters and
// trip state. Not safe to call concurrently with Uint64 draws; the
// caller must hold whatever lock serialises drawing.
func (m *Monitor) MarshalBinary() ([]byte, error) {
	le := binary.LittleEndian
	out := append(make([]byte, 0, 64), monitorTag, monitorVersion) // 30 fixed bytes and a short failure record
	out = le.AppendUint32(out, uint32(m.rctBound))
	out = le.AppendUint32(out, aptWindow)
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
	if window != aptWindow {
		return nil, fmt.Errorf("bitsource: monitor APT window %d, want %d", window, aptWindow)
	}
	if rct < 3 || rct > monitorMaxBound || apt < 1 || apt > monitorMaxBound {
		return nil, fmt.Errorf("bitsource: monitor RCT cutoff %d and APT cutoff %d, want [3, %d] and [1, %[3]d]", rct, apt, monitorMaxBound)
	}
	if seen%8 != 0 || seen >= aptWindow {
		return nil, fmt.Errorf("bitsource: monitor APT position %d is not a word boundary inside the window", seen)
	}
	if repeats > monitorMaxBound || count > monitorMaxBound {
		return nil, fmt.Errorf("bitsource: monitor counters out of range")
	}
	m.rctBound, m.aptBound = int(rct), int(apt)
	m.repeats, m.aptCount, m.aptSeen = int(repeats), int(count), int(seen)
	return m, nil
}
