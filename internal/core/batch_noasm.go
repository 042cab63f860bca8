//go:build !amd64 || purego

package core

// Non-amd64 builds, and amd64 builds tagged purego, use the four-lane
// register kernel (chunk21x4) only; the eight-wide vector path is never
// selected. The purego tag lets an amd64 host execute the kernel every
// other architecture runs.
const haveStep8 = false

func step21x8(x, y *[8]uint32, w *[8]uint64) {
	panic("core: step21x8 without vector support")
}

func step21x16(x, y *[16]uint32, w *[16]uint64) {
	panic("core: step21x16 without vector support")
}
