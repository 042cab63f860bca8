//go:build !amd64 || purego

package core

// Non-amd64 builds, and amd64 builds tagged purego, walk every lane
// through chunk21; the AVX2 lockstep path (walkBins) is never
// selected. The purego tag lets an amd64 host execute the path every
// other architecture runs.
const haveAVX2 = false

func walkBins(*binGroup, *[MaxBatchLanes]uint32, *[MaxBatchLanes]uint32, *[MaxBatchLanes][]uint64, int, int, int, int) {
	panic("core: walkBins without AVX2")
}
