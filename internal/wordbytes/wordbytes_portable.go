//go:build !(386 || amd64 || arm || arm64 || loong64 || mipsle || mips64le || ppc64le || riscv64 || wasm) || purego

package wordbytes

// Big-endian (or unknown-endian) hosts: a reinterpreted view would
// expose big-endian bytes, which is not the wire format. Report the
// view unavailable so callers use the portable encode-and-copy path.
// Builds tagged purego take this file on every host, so a
// little-endian machine can execute the path big-endian hosts run.

func words(b []byte) []uint64 { return nil }

func bytes(w []uint64) []byte { return nil }
