// Package blob is the framing every checkpoint format shares:
// little-endian fields and u16- or u32-length-prefixed byte strings.
// Encoders append with encoding/binary's Append… calls plus
// AppendBytes32, AppendBytes16 and AppendBool. Decoders read through a
// Reader, which compares every length with the bytes left unsigned:
// int(n) is negative on 32-bit hosts for n ≥ 2^31.
package blob

import (
	"encoding/binary"
	"fmt"
)

// AppendBytes32 appends a u32 length header and b.
func AppendBytes32[T string | []byte](out []byte, b T) []byte {
	return append(binary.LittleEndian.AppendUint32(out, uint32(len(b))), b...)
}

// AppendBytes16 appends a u16 length header and b. The caller bounds
// len(b) to 0xFFFF.
func AppendBytes16[T string | []byte](out []byte, b T) []byte {
	return append(binary.LittleEndian.AppendUint16(out, uint16(len(b))), b...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(out []byte, v bool) []byte {
	if v {
		return append(out, 1)
	}
	return append(out, 0)
}

// Reader decodes a blob front to back. Its first failed read latches
// an error and every later read returns a zero value, so a decoder
// reads its fields in a straight line and checks Err or Done once.
// Byte strings returned by Bytes16 and Bytes32 alias the blob.
type Reader struct {
	p    []byte
	name string
	err  error
}

// NewReader returns a Reader over data. name starts its errors, as in
// "hybridprng: pool state".
func NewReader(data []byte, name string) *Reader {
	return &Reader{p: data, name: name}
}

// take consumes k bytes. Past the end it latches the first truncation
// error and empties the reader, so every later read fails too.
func (r *Reader) take(k uint64) []byte {
	if k > uint64(len(r.p)) {
		if r.err == nil {
			r.err = fmt.Errorf("%s truncated: %d more bytes wanted, %d left", r.name, k, len(r.p))
		}
		r.p = nil
		return nil
	}
	b := r.p[:k]
	r.p = r.p[k:]
	return b
}

var zeros [8]byte

// fixed consumes a k-byte field, k ≤ 8, or returns zeros past the end.
// Its in-bounds path makes no call, so a field read costs one call.
func (r *Reader) fixed(k int) []byte {
	if len(r.p) >= k {
		b := r.p[:k]
		r.p = r.p[k:]
		return b
	}
	r.take(uint64(k))
	return zeros[:k]
}

// Magic consumes m and reports true when the blob continues with it;
// otherwise it consumes nothing, latches nothing and reports false.
func (r *Reader) Magic(m string) bool {
	if len(r.p) < len(m) || string(r.p[:len(m)]) != m {
		return false
	}
	r.p = r.p[len(m):]
	return true
}

// Byte reads one byte.
func (r *Reader) Byte() byte { return r.fixed(1)[0] }

// Bool reads one byte; any value but 0 is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uint16 reads a little-endian u16.
func (r *Reader) Uint16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }

// Uint32 reads a little-endian u32.
func (r *Reader) Uint32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// Uint64 reads a little-endian u64.
func (r *Reader) Uint64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Bytes16 reads a u16 length header and that many bytes.
func (r *Reader) Bytes16() []byte { return r.take(uint64(r.Uint16())) }

// Bytes32 reads a u32 length header and that many bytes.
func (r *Reader) Bytes32() []byte { return r.take(uint64(r.Uint32())) }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error if bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && len(r.p) != 0 {
		return fmt.Errorf("%s has %d trailing bytes", r.name, len(r.p))
	}
	return r.err
}
