// Package bitsource provides the generator's FEED work unit: sources
// of cheap random bits and the SP 800-90B health monitor that checks
// them.
//
// The paper's design point is that the feed bits may come from a
// fast, low-quality generator (glibc rand()); the expander walk
// amplifies their quality. The default feed here is therefore the
// bit-exact glibc re-implementation, with the ANSI C LCG and a
// crypto-seeded SplitMix64 available for ablations.
package bitsource

import (
	cryptorand "crypto/rand"
	"encoding/binary"

	"repro/internal/baselines"
	"repro/internal/rng"
)

// CryptoSeed returns a 64-bit seed from the operating system's
// entropy pool, falling back to a fixed constant only if the pool is
// unreadable (it never is in practice; the fallback keeps the
// function total).
func CryptoSeed() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 0x9E3779B97F4A7C15
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Glibc returns a BitReader over the glibc rand() stream — the
// paper's FEED configuration.
func Glibc(seed uint32) *rng.BitReader {
	return rng.NewBitReader(baselines.NewGlibcRand(seed))
}

// ANSIC returns a BitReader over the ANSI C rand() stream, the
// weakest feed used in ablations.
func ANSIC(seed uint32) *rng.BitReader {
	return rng.NewBitReader(baselines.NewANSIC(seed))
}

// SplitMix returns a BitReader over a SplitMix64 stream, the
// high-quality feed ablation.
func SplitMix(seed uint64) *rng.BitReader {
	return rng.NewBitReader(baselines.NewSplitMix64(seed))
}
