//go:build (386 || amd64 || arm || arm64 || loong64 || mipsle || mips64le || ppc64le || riscv64 || wasm) && !purego

package wordbytes

import "unsafe"

// On these architectures uint64s are stored little-endian, so a
// reinterpreted view is exactly the wire encoding.

func words(b []byte) []uint64 {
	if len(b) == 0 || len(b)%8 != 0 {
		return nil
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%8 != 0 {
		// *uint64 views must be 8-byte aligned; unaligned buffers take
		// the copying fallback.
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(p)), len(b)/8)
}

func bytes(w []uint64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}
