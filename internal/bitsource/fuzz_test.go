package bitsource

import (
	"bytes"
	"testing"

	"repro/internal/baselines"
)

// FuzzMonitorWordMatchesByte restores a monitor from arbitrary test
// state, feeds it arbitrary words, and requires the word-at-a-time
// monitor and the per-byte reference to marshal identically after
// every word. Blobs RestoreMonitor rejects are skipped.
func FuzzMonitorWordMatchesByte(f *testing.F) {
	// rct, window, aptBound, seen, count, sample, last, repeats, have, tripped, words
	f.Add(uint8(5), uint16(512), uint16(13), uint16(8), uint16(1), byte(0x11), byte(0x22), uint8(1), true, false,
		wordBytes(0x0123456789ABCDEF, 0x1122334455667788, 0xF0E1D2C3B4A59687))
	f.Add(uint8(5), uint16(512), uint16(13), uint16(0), uint16(0), byte(0), byte(0), uint8(0), false, false,
		wordBytes(0x4242424242424242, 0x4242424242424242))
	f.Add(uint8(3), uint16(500), uint16(40), uint16(3), uint16(39), byte(0x01), byte(0x01), uint8(2), true, false,
		wordBytes(0x0101010001000101, 0x0100010001000100))
	f.Add(uint8(9), uint16(13), uint16(4), uint16(7), uint16(2), byte(0xAA), byte(0x55), uint8(1), true, true,
		wordBytes(0xAA55AA55AA55AA55, 0x55AA55AA55AA55AA))
	f.Add(uint8(1), uint16(1), uint16(1), uint16(1), uint16(5), byte(0), byte(0), uint8(7), true, true, wordBytes(0, 1, 2))
	f.Add(uint8(31), uint16(512), uint16(410), uint16(505), uint16(300), byte(0x03), byte(0x02), uint8(1), true, false,
		wordBytes(0x0302010003020100, 0x0303030303030303))
	f.Fuzz(func(t *testing.T, rct uint8, window, aptBound, seen, count uint16, sample, last byte, repeats uint8, have, tripped bool, data []byte) {
		blob := monitorState{
			rct: int(rct), window: int(window), aptBound: int(aptBound),
			seen: int(seen), count: int(count), repeats: int(repeats),
			sample: sample, last: last, haveSample: have, tripped: tripped,
		}.blob(t)
		if _, err := RestoreMonitor(baselines.NewSplitMix64(0), blob); err != nil {
			return
		}
		word, ref, rec := monitorPair(t, blob, cycleFeed(data))
		n := (len(data) + 7) / 8
		if n < 4 {
			n = 4
		}
		requireWordMatchesByte(t, word, ref, rec, n)
	})
}

// FuzzMonitorBlockMatchesWord restores two monitors from arbitrary
// test state and feeds both the same arbitrary words: one through
// FillWords blocks of 1 to 256 words, one a word at a time through
// Uint64. After every block both must marshal identically to each
// other and to the per-byte reference. Blobs RestoreMonitor rejects
// are skipped. The 96-word seeds are the bins a pool shard draws,
// from words 4 and 36 of a window: one block crosses one window edge,
// the other two.
func FuzzMonitorBlockMatchesWord(f *testing.F) {
	// rct, window, aptBound, seen, count, sample, last, repeats, have, tripped, block, words
	f.Add(uint8(9), uint16(512), uint16(13), uint16(0), uint16(1), byte(0x11), byte(0x22), uint8(1), true, false, uint8(3),
		wordBytes(0x0123456789ABCDEF, 0x1122334455667788, 0xF0E1D2C3B4A59687, 0x4242424242424242))
	f.Add(uint8(9), uint16(16), uint16(5), uint16(8), uint16(2), byte(0x42), byte(0x42), uint8(7), true, false, uint8(2),
		wordBytes(0x4242424242424242, 0x4242000042424242, 0x4200424242424242))
	f.Add(uint8(3), uint16(500), uint16(40), uint16(3), uint16(39), byte(0x01), byte(0x01), uint8(0), true, false, uint8(5),
		wordBytes(0x0101010001000101, 0x0100010001000100))
	f.Add(uint8(5), uint16(512), uint16(13), uint16(0), uint16(0), byte(0), byte(0), uint8(0), false, false, uint8(1),
		wordBytes(0x4242424242424242, 0x4242424242424242))
	f.Add(uint8(1), uint16(8), uint16(1), uint16(0), uint16(5), byte(0), byte(0), uint8(7), true, true, uint8(64), wordBytes(0, 1, 2))
	bin := make([]uint64, 96)
	for i := range bin {
		bin[i] = baselines.Finalize64(uint64(i))
	}
	for _, seen := range []uint16{32, 288} {
		f.Add(uint8(5), uint16(512), uint16(13), seen, uint16(1), byte(0x11), byte(0x22), uint8(1), true, false, uint8(95), wordBytes(bin...))
	}
	for _, e := range screenEdges { // eight-word blocks
		st := e.st
		f.Add(uint8(st.rct), uint16(st.window), uint16(st.aptBound), uint16(st.seen), uint16(st.count), st.sample, st.last, uint8(st.repeats),
			st.haveSample, st.tripped, uint8(7), wordBytes(e.words...))
	}
	f.Fuzz(func(t *testing.T, rct uint8, window, aptBound, seen, count uint16, sample, last byte, repeats uint8, have, tripped bool, block uint8, data []byte) {
		blob := monitorState{
			rct: int(rct), window: int(window), aptBound: int(aptBound),
			seen: int(seen), count: int(count), repeats: int(repeats),
			sample: sample, last: last, haveSample: have, tripped: tripped,
		}.blob(t)
		if _, err := RestoreMonitor(baselines.NewSplitMix64(0), blob); err != nil {
			return
		}
		bm, ref := restoredPair(t, blob, cycleFeed(data))
		wm, err := RestoreMonitor(cycleFeed(data), blob)
		if err != nil {
			t.Fatal(err)
		}
		n := int(block) + 1
		dst := make([]uint64, n)
		for drawn := 0; drawn < max(len(data)/8, 4*n); drawn += n {
			bm.FillWords(dst)
			for i, v := range dst {
				if w := wm.Uint64(); w != v {
					t.Fatalf("word %d: block %#x, per-word %#x", drawn+i, v, w)
				}
				checkWordByBytes(ref, v)
			}
			got, word, want := marshalMonitor(t, bm), marshalMonitor(t, wm), marshalMonitor(t, ref)
			if !bytes.Equal(got, want) || !bytes.Equal(word, want) {
				t.Fatalf("after %d words: block state\n%x\nper-word state\n%x\nper-byte state\n%x", drawn+n, got, word, want)
			}
		}
	})
}
