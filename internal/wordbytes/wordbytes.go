// Package wordbytes reinterprets word slices as byte slices (and
// back) without copying, on architectures where the reinterpretation
// is the identity the wire format wants.
//
// The serving stack's wire format is little-endian uint64 words. On a
// little-endian host a []uint64's memory already *is* that byte
// stream, so the hot serving paths can fill a caller's byte buffer
// directly through a word-typed view and skip the encode-and-copy
// step entirely. On big-endian hosts (or for unaligned buffers) the
// conversions report failure by returning nil and callers fall back
// to the portable binary.LittleEndian copy. A view changes where the
// words are written, not which words are drawn: a caller keeps its
// bytes identical either way only by making the same draw calls on
// both paths, as hybridprng.Pool.FillBytes does. Building with the
// purego tag makes the views unavailable on every host, so the
// fallback can be tested on a little-endian machine.
package wordbytes

// Words returns a []uint64 view over b's storage, or nil when the
// view is unavailable: b is empty, not a multiple of 8 bytes, not
// 8-byte aligned, the host is big-endian, or the build is tagged
// purego. Writing words through the view writes their little-endian
// bytes into b in place.
func Words(b []byte) []uint64 { return words(b) }

// Bytes returns a []byte view over w's storage, or nil when the view
// is unavailable (empty slice, big-endian host or purego build). The
// bytes are the little-endian encoding of w's words.
func Bytes(w []uint64) []byte { return bytes(w) }
