package blob

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestReaderRoundTrip reads back every field kind the Append calls
// write, and Done accepts the exactly consumed blob.
func TestReaderRoundTrip(t *testing.T) {
	out := []byte("mag")
	out = append(out, 7)
	out = AppendBool(out, true)
	out = binary.LittleEndian.AppendUint16(out, 0xBEEF)
	out = binary.LittleEndian.AppendUint32(out, 0xDEADBEEF)
	out = binary.LittleEndian.AppendUint64(out, 1<<63|5)
	out = AppendBytes16(out, "sixteen")
	out = AppendBytes32(out, []byte{1, 2, 3})
	out = AppendBytes32(out, "")

	r := NewReader(out, "test blob")
	if r.Magic("max") || !r.Magic("mag") {
		t.Fatal("Magic matched the wrong prefix")
	}
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Uint16(); v != 0xBEEF {
		t.Errorf("Uint16 = %#x", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != 1<<63|5 {
		t.Errorf("Uint64 = %#x", v)
	}
	if s := r.Bytes16(); string(s) != "sixteen" {
		t.Errorf("Bytes16 = %q", s)
	}
	if s := r.Bytes32(); !bytes.Equal(s, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", s)
	}
	if s := r.Bytes32(); len(s) != 0 {
		t.Errorf("empty Bytes32 = %v", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderLatchesFirstError: a short read latches, later reads
// return zero values even where bytes remain, and Magic stops matching.
func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, "test blob")
	if v := r.Uint32(); v != 0 || r.Err() == nil {
		t.Fatalf("Uint32 of 3 bytes = %d, err %v", v, r.Err())
	}
	first := r.Err()
	if b := r.Byte(); b != 0 {
		t.Errorf("Byte after a latched error = %d", b)
	}
	if r.Magic("\x01") {
		t.Error("Magic matched after a latched error")
	}
	if r.Err() != first || r.Done() != first {
		t.Errorf("latched error changed: %v, then %v", first, r.Err())
	}
}

// TestReaderRejectsHugeLengths gives both length headers values at or
// above 2^31, which turn negative when converted to int on a 32-bit
// host; each must latch a truncation error and return nothing.
func TestReaderRejectsHugeLengths(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		read func(*Reader) []byte
	}{
		{"Bytes32 2^31", []byte{0, 0, 0, 0x80, 1, 2, 3}, (*Reader).Bytes32},
		{"Bytes32 0xFFFFFFF0", []byte{0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3}, (*Reader).Bytes32},
		{"Bytes16 0xFFFF", []byte{0xFF, 0xFF, 1, 2, 3}, (*Reader).Bytes16},
	} {
		r := NewReader(c.data, "test blob")
		if got := c.read(r); got != nil || r.Err() == nil {
			t.Errorf("%s: read %d bytes of a 3-byte body, err %v", c.name, len(got), r.Err())
		}
	}
}

// TestReaderDoneRejectsTrailingBytes: a blob with bytes left over is
// an error even when every read succeeded.
func TestReaderDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 0, 9}, "test blob")
	if r.Uint16() != 1 || r.Err() != nil {
		t.Fatal("Uint16 failed")
	}
	if r.Done() == nil {
		t.Fatal("Done accepted a trailing byte")
	}
}
