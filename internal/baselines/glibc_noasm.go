//go:build !amd64 || purego

package baselines

// Non-amd64 builds, and amd64 builds tagged purego, draw every word
// through FillWords' Go loop; the AVX2 block kernel is never selected.
const haveAVX2 = false

func (g *GlibcRand) fillBlocks([]uint64) {
	panic("baselines: fillBlocks without AVX2")
}
