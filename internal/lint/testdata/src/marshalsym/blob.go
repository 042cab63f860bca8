// Package marshalsym exercises the marshalsym analyzer: encode and
// decode halves of a state blob must move the same data.
package marshalsym

import (
	"encoding/binary"
	"errors"

	"repro/internal/blob"
)

// Widget reproduces the historical monitor-marshal bug: a field was
// added to the encoder (and the struct) without touching the decoder
// or the version tag, so every blob round-trip silently drops it and
// misparses whatever follows.
type Widget struct {
	a, b, c uint64
	added   uint64
}

func (w *Widget) MarshalBinary() ([]byte, error) { // want "always writes 4 8-byte values but UnmarshalBinary consumes at most 3"
	out := make([]byte, 32)
	binary.LittleEndian.PutUint64(out[0:], w.a)
	binary.LittleEndian.PutUint64(out[8:], w.b)
	binary.LittleEndian.PutUint64(out[16:], w.c)
	binary.LittleEndian.PutUint64(out[24:], w.added)
	return out, nil
}

func (w *Widget) UnmarshalBinary(p []byte) error {
	if len(p) < 24 {
		return errors.New("short widget blob")
	}
	w.a = binary.LittleEndian.Uint64(p[0:])
	w.b = binary.LittleEndian.Uint64(p[8:])
	w.c = binary.LittleEndian.Uint64(p[16:])
	return nil
}

// Greedy decodes more than its encoder ever produced.
type Greedy struct {
	x, y uint64
}

func (g *Greedy) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, g.x)
	return out, nil
}

func (g *Greedy) UnmarshalBinary(p []byte) error { // want "always reads 2 8-byte values but MarshalBinary writes at most 1"
	if len(p) < 16 {
		return errors.New("short greedy blob")
	}
	g.x = binary.LittleEndian.Uint64(p[0:])
	g.y = binary.LittleEndian.Uint64(p[8:])
	return nil
}

// Versioned is the sanctioned way to grow a blob: the new field is
// decoded only behind a version comparison, so old blobs still
// parse. Asymmetry guarded by a version tag is legal by
// construction.
type Versioned struct {
	x, y uint32
}

func (v *Versioned) MarshalBinary() ([]byte, error) {
	out := make([]byte, 9)
	out[0] = 2 // version
	binary.LittleEndian.PutUint32(out[1:], v.x)
	binary.LittleEndian.PutUint32(out[5:], v.y)
	return out, nil
}

func (v *Versioned) UnmarshalBinary(p []byte) error {
	if len(p) < 5 {
		return errors.New("short versioned blob")
	}
	version := p[0]
	v.x = binary.LittleEndian.Uint32(p[1:])
	if version >= 2 {
		v.y = binary.LittleEndian.Uint32(p[5:])
	}
	return nil
}

// Framed round-trips through the repo's real idioms — a put32
// closure, a shared helper and a length-prefixed loop — and is
// symmetric, so inlining must keep it clean.
type Framed struct {
	head uint32
	vals []uint64
}

func put64at(out []byte, off int, v uint64) {
	binary.LittleEndian.PutUint64(out[off:], v)
}

func (f *Framed) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+8*len(f.vals))
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(out, v)
	}
	put32(f.head)
	for i, v := range f.vals {
		put64at(out, 4+8*i, v)
	}
	return out, nil
}

func (f *Framed) UnmarshalBinary(p []byte) error {
	if len(p) < 4 || (len(p)-4)%8 != 0 {
		return errors.New("bad framed blob")
	}
	f.head = binary.LittleEndian.Uint32(p)
	f.vals = make([]uint64, (len(p)-4)/8)
	for i := range f.vals {
		f.vals[i] = binary.LittleEndian.Uint64(p[4+8*i:])
	}
	return nil
}

// Oneway is deliberately asymmetric — the trailing checksum is
// verified out of band — and carries the acknowledgement marker.
type Oneway struct {
	n uint64
}

//lint:ignore marshalsym trailing checksum is written for external tooling and never decoded here
func (o *Oneway) MarshalBinary() ([]byte, error) {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[0:], o.n)
	binary.LittleEndian.PutUint64(out[8:], o.n^0xDEAD)
	return out, nil
}

func (o *Oneway) UnmarshalBinary(p []byte) error {
	if len(p) < 16 {
		return errors.New("short oneway blob")
	}
	o.n = binary.LittleEndian.Uint64(p)
	return nil
}

// Framed32's decoder reads through the checkpoint framing package and
// drops the second length-prefixed string.
type Framed32 struct{ name, note string }

func (f *Framed32) MarshalBinary() ([]byte, error) { // want "always writes 2 4-byte values but UnmarshalBinary consumes at most 1"
	return blob.AppendBytes32(blob.AppendBytes32(nil, f.name), f.note), nil
}

func (f *Framed32) UnmarshalBinary(p []byte) error {
	r := blob.NewReader(p, "framed32")
	f.name = string(r.Bytes32())
	return r.Done()
}
