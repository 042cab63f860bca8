package bitsource

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/baselines"
	"repro/internal/rng"
)

// Monitor.Uint64 screens most words whole. These tests hold it to the
// definition: feeding each byte of the same word through checkByte
// must leave an identical monitor — same trip, same failure text,
// same marshalled counters — after every single word.

// wordRecorder remembers the last word its source handed out, so the
// per-byte reference can be fed exactly what the monitor under test
// drew.
type wordRecorder struct {
	src  rng.Source
	last uint64
}

func (r *wordRecorder) Uint64() uint64 {
	r.last = r.src.Uint64()
	return r.last
}

// checkWordByBytes is the per-byte reference for Monitor.Uint64.
func checkWordByBytes(m *Monitor, v uint64) {
	for i := 0; i < 8; i++ {
		m.checkByte(byte(v >> (8 * i)))
	}
}

func marshalMonitor(t testing.TB, m *Monitor) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// monitorPair restores two monitors from one blob: word draws from
// src through the monitor under test; ref is checked byte by byte.
func monitorPair(t testing.TB, blob []byte, src rng.Source) (word, ref *Monitor, rec *wordRecorder) {
	t.Helper()
	rec = &wordRecorder{src: src}
	word, err := RestoreMonitor(rec, blob)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = RestoreMonitor(rec, blob); err != nil {
		t.Fatal(err)
	}
	return word, ref, rec
}

// requireWordMatchesByte draws n words and fails at the first word
// after which the two monitors' marshalled states differ.
func requireWordMatchesByte(t testing.TB, word, ref *Monitor, rec *wordRecorder, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		word.Uint64()
		checkWordByBytes(ref, rec.last)
		got, want := marshalMonitor(t, word), marshalMonitor(t, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("word %d (%#016x): word-at-a-time state\n%x\nper-byte state\n%x", i, rec.last, got, want)
		}
	}
}

// diffSources are the feeds the differential test runs: healthy, the
// paper's glibc feed, stuck, byte-masked low-entropy and alternating.
func diffSources() []struct {
	name string
	src  func() rng.Source
} {
	masked := func(seed, mask uint64) func() rng.Source {
		return func() rng.Source {
			s := baselines.NewSplitMix64(seed)
			return rng.Func(func() uint64 { return s.Uint64() & mask })
		}
	}
	alternate := func(a, b uint64) func() rng.Source {
		return func() rng.Source {
			i := 0
			return rng.Func(func() uint64 {
				i++
				if i%2 == 0 {
					return a
				}
				return b
			})
		}
	}
	return []struct {
		name string
		src  func() rng.Source
	}{
		{"splitmix", func() rng.Source { return baselines.NewSplitMix64(11) }},
		{"glibc", func() rng.Source { return baselines.NewGlibcRand(12) }},
		{"stuck", func() rng.Source { return rng.Func(func() uint64 { return 0x4242424242424242 }) }},
		{"mask-01", masked(13, 0x0101010101010101)},
		{"mask-03", masked(14, 0x0303030303030303)},
		{"mask-0F", masked(15, 0x0F0F0F0F0F0F0F0F)},
		{"mask-00FF", masked(16, 0x00FF00FF00FF00FF)},
		{"alt-AA55", func() rng.Source { return rng.Func(func() uint64 { return 0xAA55AA55AA55AA55 }) }},
		{"alt-words", alternate(0x0123456789ABCDEF, 0xFEDCBA9876543210)},
		{"alt-period3", func() rng.Source {
			// Bytes 1,2,3,1,2,3,...: the pattern drifts against word
			// boundaries, so every byte lane sees every value.
			k := 0
			return rng.Func(func() uint64 {
				var v uint64
				for b := 0; b < 8; b++ {
					v |= uint64(k%3+1) << (8 * b)
					k++
				}
				return v
			})
		}},
	}
}

var diffHMins = []float64{0.5, 1, 2, 4, 8}

func TestMonitorWordMatchesByte(t *testing.T) {
	for _, src := range diffSources() {
		for _, h := range diffHMins {
			t.Run(fmt.Sprintf("%s/h=%g", src.name, h), func(t *testing.T) {
				fresh, err := NewMonitor(baselines.NewSplitMix64(0), h)
				if err != nil {
					t.Fatal(err)
				}
				word, ref, rec := monitorPair(t, marshalMonitor(t, fresh), src.src())
				// 4096 words cover 64 full APT windows.
				requireWordMatchesByte(t, word, ref, rec, 4096)
			})
		}
	}
}

// monitorState is a monitor's test state, written out field by field
// so tests can build blobs no fresh monitor produces.
type monitorState struct {
	rct, window, aptBound int
	seen, count, repeats  int
	sample, last          byte
	haveSample, tripped   bool
}

// blob marshals the state the way a checkpoint would carry it, with
// the window written into the blob's window field.
func (s monitorState) blob(t testing.TB) []byte {
	t.Helper()
	m := &Monitor{
		src:      baselines.NewSplitMix64(0),
		rctBound: s.rct, aptBound: s.aptBound,
		aptSeen: s.seen, aptCount: s.count, repeats: s.repeats,
		aptSample: s.sample, lastByte: s.last, haveSample: s.haveSample,
	}
	if s.tripped {
		m.trip("repetition-count", "restored trip")
	}
	b := marshalMonitor(t, m)
	binary.LittleEndian.PutUint32(b[6:], uint32(s.window)) // after the tag, version and RCT cutoff
	return b
}

// TestMonitorWordMatchesByteRestored starts from blobs no fresh monitor
// produces: counts near the cutoff, runs in progress, windows about to
// end or open, and monitors that have already tripped.
func TestMonitorWordMatchesByteRestored(t *testing.T) {
	for _, st := range restoredStates {
		for _, src := range diffSources() {
			t.Run(st.name+"/"+src.name, func(t *testing.T) {
				word, ref, rec := monitorPair(t, st.st.blob(t), src.src())
				requireWordMatchesByte(t, word, ref, rec, 1024)
			})
		}
	}
}

// restoredStates are the blobs TestMonitorWordMatchesByteRestored and
// TestMonitorBlockMatchesByteRestored start from. A row with a forged
// state is named for that state, a shape RestoreMonitor refuses (a
// window other than 512 bytes, a position off a word boundary or at the
// window's end, an RCT cutoff under 3; TestRestoreMonitorRules holds the
// refusal), and runs from st, the nearest state a monitor can hold.
var restoredStates = []struct {
	name   string
	st     monitorState
	forged *monitorState
}{
	// A run of one whose byte is the sample, early in a window.
	{"window500-seen3", monitorState{rct: 5, window: 512, aptBound: 13, seen: 8, count: 1, sample: 0x42, last: 0x42, repeats: 1, haveSample: true},
		&monitorState{rct: 5, window: 500, aptBound: 13, seen: 3, count: 1, sample: 0x42, last: 0x42, repeats: 1, haveSample: true}},
	// A run of two carried in against an APT cutoff of 4, half reached.
	{"window13-seen7", monitorState{rct: 5, window: 512, aptBound: 4, seen: 8, count: 2, sample: 0x01, last: 0x01, repeats: 2, haveSample: true},
		&monitorState{rct: 5, window: 13, aptBound: 4, seen: 7, count: 2, sample: 0x01, last: 0x01, repeats: 2, haveSample: true}},
	// A window that ends after the next word.
	{"window9-seen9", monitorState{rct: 9, window: 512, aptBound: 9, seen: 504, count: 1, haveSample: true},
		&monitorState{rct: 9, window: 9, aptBound: 9, seen: 9, count: 1, haveSample: true}},
	// An APT cutoff of 2: the sample's first repeat in a window trips.
	{"window1", monitorState{rct: 31, window: 512, aptBound: 2, seen: 8, count: 1, haveSample: true},
		&monitorState{rct: 31, window: 1, aptBound: 2, seen: 1, count: 1, haveSample: true}},
	// A window that ends after the next word, its count one short of the
	// cutoff, with a run of four in progress.
	{"window512-seen505", monitorState{rct: 5, window: 512, aptBound: 13, seen: 504, count: 12, sample: 0x03, last: 0x07, repeats: 4, haveSample: true},
		&monitorState{rct: 5, window: 512, aptBound: 13, seen: 505, count: 12, sample: 0x03, last: 0x07, repeats: 4, haveSample: true}},
	{"count-at-bound", monitorState{rct: 5, window: 512, aptBound: 13, seen: 104, count: 13, haveSample: true},
		&monitorState{rct: 5, window: 512, aptBound: 13, seen: 100, count: 13, haveSample: true}},
	// The smallest cutoffs RestoreMonitor takes.
	{"bounds-1", monitorState{rct: 3, window: 512, aptBound: 1, seen: 8, haveSample: true},
		&monitorState{rct: 1, window: 64, aptBound: 1, seen: 9, haveSample: true}},
	{"no-sample", monitorState{rct: 5, window: 512, aptBound: 13}, nil},
	// Counters left in a monitor with no sample: its first word resets them.
	{"no-sample-seen5", monitorState{rct: 5, window: 512, aptBound: 13, seen: 8, count: 2, last: 0x42},
		&monitorState{rct: 5, window: 512, aptBound: 13, seen: 5, count: 2, last: 0x42}},
	{"tripped", monitorState{rct: 5, window: 512, aptBound: 13, seen: 40, count: 3, sample: 0x01, last: 0x01, repeats: 3, haveSample: true, tripped: true},
		&monitorState{rct: 5, window: 512, aptBound: 13, seen: 37, count: 3, sample: 0x01, last: 0x01, repeats: 3, haveSample: true, tripped: true}},
	{"tripped-over-bound", monitorState{rct: 5, window: 512, aptBound: 13, seen: 24, count: 40, repeats: 9, haveSample: true, tripped: true},
		&monitorState{rct: 5, window: 100, aptBound: 13, seen: 21, count: 40, repeats: 9, haveSample: true, tripped: true}},
	{"run-near-cutoff", monitorState{rct: 9, window: 512, aptBound: 400, seen: 8, count: 1, sample: 0x42, last: 0x42, repeats: 7, haveSample: true}, nil},
	{"run-zero", monitorState{rct: 3, window: 512, aptBound: 500, seen: 16, count: 1, last: 0x42, haveSample: true}, nil},
	// The next word opens a window, with a count at the cutoff left over.
	{"opens-window", monitorState{rct: 9, window: 512, aptBound: 5, seen: 0, count: 4, sample: 0x01, last: 0x01, repeats: 1, haveSample: true},
		&monitorState{rct: 9, window: 64, aptBound: 5, seen: 0, count: 4, sample: 0x01, last: 0x01, repeats: 1, haveSample: true}},
}

// screenEdges are monitor states and feeds at the edges of the window
// screen (Monitor.screen). TestMonitorScreenEdges runs them as block
// differential cases, and they seed FuzzMonitorBlockMatchesWord. The
// feed cycles through words; bytes are written low byte first. A row
// with a forged state is named for it, as in restoredStates.
var screenEdges = []struct {
	name   string
	st     monitorState
	words  []uint64
	forged *monitorState
}{
	// Bytes 6-7 of one word and byte 0 of the next: the triple only the
	// check across the word boundary sees, which trips an RCT of 3.
	{"triple-across-words", monitorState{rct: 3, window: 512, aptBound: 400, seen: 8, count: 1, sample: 0x01, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x4242060504030201, 0x0D0C0B0A09080742, 0x1817161514131211, 0x2827262524232221}, nil},
	// A carried run of 2 whose byte is byte 0 of the segment.
	{"carried-run-2", monitorState{rct: 3, window: 512, aptBound: 400, seen: 16, count: 1, sample: 0x01, last: 0x42, repeats: 2, haveSample: true},
		[]uint64{0x0D0C0B0A09080742, 0x1817161514131211, 0x2827262524232221}, nil},
	// An APT count of 1 meeting four more samples in the window's last
	// seven words, the fourth its last byte: it reaches the cutoff of 5
	// there. The one-short case lacks one sample and stays at 4.
	{"apt-cutoff-at-window-end", monitorState{rct: 5, window: 512, aptBound: 5, seen: 456, count: 1, sample: 0x11, last: 0x07, repeats: 1, haveSample: true},
		[]uint64{0x2827261124232221, 0x3837363534333231, 0x4847461144434241, 0x5857565554535251, 0x6867661164636261, 0x7877767574737271, 0x1187868584838281}, nil},
	{"apt-one-short", monitorState{rct: 5, window: 512, aptBound: 5, seen: 456, count: 1, sample: 0x11, last: 0x07, repeats: 1, haveSample: true},
		[]uint64{0x2827261124232221, 0x3837363534333231, 0x4847464544434241, 0x5857565554535251, 0x6867661164636261, 0x7877767574737271, 0x1187868584838281}, nil},
	// A run of four of the sample across a word boundary, which screen
	// refuses and the per-byte loop passes under an RCT of 5.
	{"seen-not-multiple-of-8", monitorState{rct: 5, window: 512, aptBound: 13, seen: 8, count: 2, sample: 0x11, last: 0x11, repeats: 1, haveSample: true},
		[]uint64{0x1111060504030201, 0x0D0C0B0A09081111, 0x1817161514131211},
		&monitorState{rct: 5, window: 512, aptBound: 13, seen: 3, count: 2, sample: 0x11, last: 0x11, repeats: 1, haveSample: true}},
	// The smallest RCT cutoff screen takes, 3, and a pair under it.
	{"rct-2", monitorState{rct: 3, window: 512, aptBound: 13, seen: 8, count: 1, sample: 0x01, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x1817161514131211, 0x2827262524222221},
		&monitorState{rct: 2, window: 512, aptBound: 13, seen: 8, count: 1, sample: 0x01, last: 0x10, repeats: 1, haveSample: true}},
	// An APT cutoff of 1, which every window's sample trips.
	{"apt-1", monitorState{rct: 5, window: 512, aptBound: 1, seen: 8, count: 0, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x1817161514131211, 0x2827262524232221}, nil},
	// A 96-word block from word 36 of a window crosses two edges, at
	// words 28 and 92. The second window takes byte 0x01 as its sample
	// and meets it in every other word: 32 times, below a cutoff of 100,
	// or reaching a cutoff of 20 at its 39th word. With 10 samples
	// carried in and 14 more before the first edge, each window stays
	// below a cutoff of 40 but their sum does not, so the vector pass
	// refuses the block and it is bisected.
	{"two-edges", monitorState{rct: 5, window: 512, aptBound: 100, seen: 288, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x100F0E0D0C0B0A09}, nil},
	{"second-window-trips", monitorState{rct: 5, window: 512, aptBound: 20, seen: 288, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x100F0E0D0C0B0A09}, nil},
	{"windows-sum-past-cutoff", monitorState{rct: 5, window: 512, aptBound: 40, seen: 288, count: 10, sample: 0x01, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x100F0E0D0C0B0A09}, nil},
	// From word 34 of a window the edges fall at words 30 and 94, inside
	// four-word groups: the block takes one scan per window part.
	{"edge-inside-group", monitorState{rct: 5, window: 512, aptBound: 100, seen: 272, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		[]uint64{0x0807060504030201, 0x100F0E0D0C0B0A09}, nil},
	// A 384-word bin from word 4 of a window, as every bin of a pool
	// shard, over a ramp with one triple. In word 300, the fourth quarter,
	// the triple trips an RCT of 3; the quarters before it screen whole
	// once the block is bisected.
	{"triple-in-quarter", monitorState{rct: 3, window: 512, aptBound: 100, seen: 32, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		withTriple(rampWords(384, 256), 300, 1), nil},
	// Bytes 6-7 of word 191 and byte 0 of word 192: the first half ends
	// on a run of two, which the second half's screen must carry in.
	{"triple-across-split", monitorState{rct: 3, window: 512, aptBound: 100, seen: 32, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		withTriple(rampWords(384, 256), 191, 6), nil},
	// hMin 8's cutoffs (RCT 5, APT 16) over a ramp of period 128, so every
	// full window counts its sample 4 times: the six windows the bin
	// closes each stay below 16 but their sum does not, so the screen
	// refuses the bin and screens its halves.
	{"six-windows-sum-past-cutoff", monitorState{rct: 5, window: 512, aptBound: 16, seen: 32, count: 1, sample: 0x11, last: 0x10, repeats: 1, haveSample: true},
		rampWords(384, 128), nil},
}

// rampWords returns n words whose bytes, low byte first, run 1, 2, …,
// period and over again (period ≤ 256), so no two bytes in a row are
// equal and each window of 512 bytes meets its first byte 512/period
// times.
func rampWords(n, period int) []uint64 {
	ws := make([]uint64, n)
	for i := range ws {
		for k := 0; k < 8; k++ {
			ws[i] |= uint64(byte(1+(8*i+k)%period)) << (8 * k)
		}
	}
	return ws
}

// withTriple sets bytes k+1 and k+2 of the run from word i's byte k on
// to byte k's value: three equal bytes in a row, which cross into word
// i+1 when k > 5.
func withTriple(ws []uint64, i, k int) []uint64 {
	b := wordBytes(ws...)
	b[8*i+k+1], b[8*i+k+2] = b[8*i+k], b[8*i+k]
	for j := range ws {
		ws[j] = binary.LittleEndian.Uint64(b[8*j:])
	}
	return ws
}

// wordBytes encodes words as a feed's bytes, low byte first.
func wordBytes(vs ...uint64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], v)
	}
	return out
}

// cycleFeed returns a source whose words are data's bytes, low byte
// first, over and over; an empty data gives zero words.
func cycleFeed(data []byte) rng.Source {
	off := 0
	return rng.Func(func() uint64 {
		var b [8]byte
		for i := range b {
			if len(data) > 0 {
				b[i] = data[off%len(data)]
				off++
			}
		}
		return binary.LittleEndian.Uint64(b[:])
	})
}

// TestMonitorScreenEdges draws each screenEdges feed in blocks of 1 to
// 384 words, at least twice through the feed's cycle and twice the
// block, and holds the monitor to the per-byte loop after every block.
func TestMonitorScreenEdges(t *testing.T) {
	for _, e := range screenEdges {
		for _, n := range []int{1, 2, 7, 8, 64, 65, 96, 384} {
			t.Run(fmt.Sprintf("%s/n=%d", e.name, n), func(t *testing.T) {
				data := wordBytes(e.words...)
				block, ref := restoredPair(t, e.st.blob(t), cycleFeed(data))
				requireBlockMatchesByte(t, block, ref, cycleFeed(data), n, max(4*64, 2*n, 2*len(e.words)))
			})
		}
	}
}

// blockSizes are the FillWords lengths the block differential tests
// draw: single words, a few odd sizes, and sizes either side of one
// and of three 64-word APT windows.
var blockSizes = []int{1, 2, 7, 63, 64, 65, 192, 193, 500}

// requireBlockMatchesByte draws total words in FillWords blocks of
// size n through block, checks the same words byte by byte through
// ref, and fails at the first block after which the two monitors'
// marshalled states differ or the block's words differ from twin's
// per-word stream.
func requireBlockMatchesByte(t testing.TB, block, ref *Monitor, twin rng.Source, n, total int) {
	t.Helper()
	dst := make([]uint64, n)
	for drawn := 0; drawn < total; drawn += n {
		block.FillWords(dst)
		for i, v := range dst {
			if want := twin.Uint64(); v != want {
				t.Fatalf("block at word %d, word %d: drew %#x, per-word source %#x", drawn, i, v, want)
			}
			checkWordByBytes(ref, v)
		}
		got, want := marshalMonitor(t, block), marshalMonitor(t, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("block at word %d (n=%d): block state\n%x\nper-byte state\n%x", drawn, n, got, want)
		}
	}
}

// blockWords is how many words a block differential test draws: full,
// or a third of it under -short (still five APT windows or more) so
// the race-detector job stays quick.
func blockWords(full int) int {
	if testing.Short() {
		return full / 3
	}
	return full
}

// restoredPair restores the monitor under test over src and the
// per-byte reference (whose source is never drawn) from one blob.
func restoredPair(t testing.TB, blob []byte, src rng.Source) (block, ref *Monitor) {
	t.Helper()
	block, err := RestoreMonitor(src, blob)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = RestoreMonitor(baselines.NewSplitMix64(0), blob); err != nil {
		t.Fatal(err)
	}
	return block, ref
}

func TestMonitorBlockMatchesByte(t *testing.T) {
	for _, src := range diffSources() {
		for _, h := range diffHMins {
			for _, n := range blockSizes {
				t.Run(fmt.Sprintf("%s/h=%g/n=%d", src.name, h, n), func(t *testing.T) {
					fresh, err := NewMonitor(baselines.NewSplitMix64(0), h)
					if err != nil {
						t.Fatal(err)
					}
					block, ref := restoredPair(t, marshalMonitor(t, fresh), src.src())
					requireBlockMatchesByte(t, block, ref, src.src(), n, blockWords(2048))
				})
			}
		}
	}
}

func TestMonitorBlockMatchesByteRestored(t *testing.T) {
	for _, st := range restoredStates {
		for _, src := range diffSources() {
			for _, n := range blockSizes {
				t.Run(fmt.Sprintf("%s/%s/n=%d", st.name, src.name, n), func(t *testing.T) {
					block, ref := restoredPair(t, st.st.blob(t), src.src())
					requireBlockMatchesByte(t, block, ref, src.src(), n, blockWords(1024))
				})
			}
		}
	}
}

// TestRestoreMonitorRules holds RestoreMonitor to its two rules. It
// takes the state marshalled after every block, for each diffSources
// feed at claims from the weakest to 8 and blocks of 1 to 384 words,
// and marshals the restored monitor to the same bytes. It refuses each
// forged shape: a window other than 512 bytes, a position off a word
// boundary or at the window's end, an RCT cutoff under 3, and cutoffs
// or counters past 2^20.
func TestRestoreMonitorRules(t *testing.T) {
	for _, src := range diffSources() {
		for _, h := range append([]float64{HMinFloor}, diffHMins...) {
			for _, n := range []int{1, 2, 7, 64, 65, 383, 384} {
				t.Run(fmt.Sprintf("accepts/%s/h=%g/n=%d", src.name, h, n), func(t *testing.T) {
					m, err := NewMonitor(src.src(), h)
					if err != nil {
						t.Fatal(err)
					}
					dst := make([]uint64, n)
					for drawn := 0; drawn < blockWords(1536); drawn += n {
						m.FillWords(dst)
						want := marshalMonitor(t, m)
						r, err := RestoreMonitor(baselines.NewSplitMix64(0), want)
						if err != nil {
							t.Fatalf("after %d words: %v", drawn+n, err)
						}
						if got := marshalMonitor(t, r); !bytes.Equal(got, want) {
							t.Fatalf("after %d words: restored state\n%x\nmarshalled state\n%x", drawn+n, got, want)
						}
					}
				})
			}
		}
	}
	ok := monitorState{rct: 5, window: 512, aptBound: 13, seen: 8, count: 1, sample: 0x11, last: 0x22, repeats: 1, haveSample: true}
	forged := map[string]monitorState{}
	for _, r := range restoredStates {
		if r.forged != nil {
			forged[r.name] = *r.forged
		}
	}
	for _, e := range screenEdges {
		if e.forged != nil {
			forged[e.name] = *e.forged
		}
	}
	for name, edit := range map[string]func(*monitorState){
		"window-0":        func(s *monitorState) { s.window = 0 },
		"window-511":      func(s *monitorState) { s.window = 511 },
		"window-513":      func(s *monitorState) { s.window = 513 },
		"window-1024":     func(s *monitorState) { s.window, s.seen = 1024, 512 },
		"seen-4":          func(s *monitorState) { s.seen = 4 },
		"seen-512":        func(s *monitorState) { s.seen = 512 },
		"seen-520":        func(s *monitorState) { s.seen = 520 },
		"rct-0":           func(s *monitorState) { s.rct = 0 },
		"rct-over-2^20":   func(s *monitorState) { s.rct = monitorMaxBound + 1 },
		"apt-0":           func(s *monitorState) { s.aptBound = 0 },
		"apt-over-2^20":   func(s *monitorState) { s.aptBound = monitorMaxBound + 1 },
		"count-over-2^20": func(s *monitorState) { s.count = monitorMaxBound + 1 },
		"run-over-2^20":   func(s *monitorState) { s.repeats = monitorMaxBound + 1 },
	} {
		s := ok
		edit(&s)
		forged[name] = s
	}
	if _, err := RestoreMonitor(baselines.NewSplitMix64(0), ok.blob(t)); err != nil {
		t.Fatalf("unforged state refused: %v", err)
	}
	for name, st := range forged {
		t.Run("refuses/"+name, func(t *testing.T) {
			if _, err := RestoreMonitor(baselines.NewSplitMix64(0), st.blob(t)); err == nil {
				t.Fatalf("forged state %+v restored", st)
			}
		})
	}
}

// BenchmarkMonitor measures the health tests on the paper's glibc
// feed at randd's default claim (-hmin 4), per feed word: one word per
// Uint64 call, and 384-word blocks — one lane's bin — per FillWords.
// The 96-word row is the bin before it grew, kept for its history.
func BenchmarkMonitor(b *testing.B) {
	b.Run("uint64", func(b *testing.B) {
		m, err := NewMonitor(baselines.NewGlibcRand(1), 4)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(8)
		for i := 0; i < b.N; i++ {
			m.Uint64()
		}
	})
	for _, n := range []int{96, 384} {
		b.Run(fmt.Sprintf("fill-words-%d", n), func(b *testing.B) {
			m, err := NewMonitor(baselines.NewGlibcRand(1), 4)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]uint64, n)
			b.SetBytes(8)
			for i := 0; i < b.N; i += len(dst) {
				m.FillWords(dst)
			}
		})
	}
}
