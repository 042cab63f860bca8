package server

import (
	"bytes"
	"encoding/binary"
	"testing"

	hybridprng "repro"
	"repro/internal/substream"
)

// nodeBlob builds a node container header followed by raw length and
// body bytes, so tests can forge the length fields.
func nodeBlob(parts ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(nodeMagic), nodeVersion)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDecodeNodeStateRejectsHugeLengths feeds each u32 length field a
// value at or above 2^31. Converted with int() on a 32-bit host such a
// length turns negative, passes a signed bounds check and panics when
// slicing; DecodeNodeState must report truncation instead (GOARCH=386
// runs this test natively on an x86-64 host).
func TestDecodeNodeStateRejectsHugeLengths(t *testing.T) {
	huge := []byte{0xF0, 0xFF, 0xFF, 0xFF}
	for name, blob := range map[string][]byte{
		"pool blob":     nodeBlob(huge, []byte{1, 2, 3}),
		"registry blob": nodeBlob([]byte{2, 0, 0, 0}, []byte{1, 2}, huge, []byte{3}),
	} {
		if _, _, err := DecodeNodeState(blob); err == nil {
			t.Errorf("%s: accepted a 0xFFFFFFF0-byte length", name)
		}
	}
}

// FuzzDecodeNodeState feeds arbitrary bytes to the node-state decoder
// — the blob a draining node hands its successor and randd reads at
// boot. It must never panic; a blob without the container magic passes
// through whole, and a container it accepts must re-encode to exactly
// the input.
func FuzzDecodeNodeState(f *testing.F) {
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(3), hybridprng.WithShards(2), hybridprng.WithShardBuffer(8))
	if err != nil {
		f.Fatal(err)
	}
	poolBlob, err := pool.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	reg, err := substream.New(substream.Config{RootSeed: 3})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := reg.Uint64("alice"); err != nil {
		f.Fatal(err)
	}
	regBlob, err := reg.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeNodeState(poolBlob, regBlob))
	f.Add(EncodeNodeState(nil, nil))
	f.Add(poolBlob)
	f.Add([]byte(nodeMagic))
	f.Add(nodeBlob([]byte{0xF0, 0xFF, 0xFF, 0xFF}, []byte{1, 2, 3}))
	f.Add(nodeBlob([]byte{0, 0, 0, 0xFF}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, r, err := DecodeNodeState(blob)
		if err != nil {
			return
		}
		if !bytes.HasPrefix(blob, []byte(nodeMagic)) {
			if !bytes.Equal(p, blob) || r != nil {
				t.Fatal("a blob without the container magic did not pass through whole")
			}
			return
		}
		if again := EncodeNodeState(p, r); !bytes.Equal(again, blob) {
			t.Fatalf("decoded container re-encodes to %x, input %x", again, blob)
		}
	})
}
