//go:build !amd64 || purego

package bitsource

// Non-amd64 builds, and amd64 builds tagged purego, screen every word
// through scanWords; the AVX2 loop is never selected.
const haveAVX2 = false

func screenGroups([]uint64, uint64, uint64, uint64, int, int) (int, int, bool) {
	panic("bitsource: screenGroups without AVX2")
}
