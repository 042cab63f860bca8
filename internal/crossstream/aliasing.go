package crossstream

import (
	"fmt"
	"math"

	"repro/internal/baselines"
)

// window identifies one fingerprinted prefix window.
type window struct {
	stream, offset int
}

// Aliasing runs the stream-identity checks:
//
//   - prefix-aliasing: every AliasWindow-word window (at AliasStride
//     offsets) of every stream prefix is fingerprinted; two windows
//     with equal contents anywhere in the ensemble — same stream at
//     different offsets (a short cycle) or different streams at any
//     offsets (duplicated seeding, counter reuse, one stream being
//     another shifted) — is a structural failure. Fingerprint hits
//     are confirmed word-for-word, so a hash collision can never
//     produce a false alarm.
//   - first-output-occupancy: the coupon/occupancy test — the top
//     bits of every stream's first output are bucketed and the empty
//     bucket count compared to its exact expectation; catches first
//     outputs drawn from a collapsed range (all-equal or few-valued
//     initialization) that pairwise tests over full prefixes dilute.
//
// A window of w ≥ 32 words carries 2048 bits, so for any honest
// generator the accidental-collision probability over even millions
// of windows is ≈ 0: the check has a zero false-alarm budget, which
// is what lets the battery treat any hit as a finding instead of a
// statistic.
func Aliasing(names []string, prefixes [][]uint64, cfg Config) []Check {
	w, stride := cfg.AliasWindow, cfg.AliasStride
	var out []Check
	if w > 0 {
		nWindows := 0
		seen := make(map[uint64][]window)
		var collisions []string
		for si, p := range prefixes {
			for off := 0; off+w <= len(p); off += stride {
				nWindows++
				h := fingerprint(p[off : off+w])
				for _, prev := range seen[h] {
					if prev.stream == si && prev.offset == off {
						continue
					}
					q := prefixes[prev.stream][prev.offset : prev.offset+w]
					if equalWords(q, p[off:off+w]) {
						collisions = append(collisions, fmt.Sprintf(
							"%s@+%d == %s@+%d (%d identical words)",
							names[prev.stream], prev.offset, names[si], off, w))
					}
				}
				seen[h] = append(seen[h], window{stream: si, offset: off})
			}
		}
		c := Check{
			Name:   "prefix-aliasing",
			Detail: fmt.Sprintf("%d windows of %d words (stride %d) across %d streams: no duplicates", nWindows, w, stride, len(prefixes)),
			P:      1,
			Pass:   true,
		}
		if len(collisions) > 0 {
			show := collisions
			if len(show) > 8 {
				show = show[:8]
			}
			c.Detail = fmt.Sprintf("%d aliased windows, e.g. %v", len(collisions), show)
			c.P = 0
			c.Pass = false
		}
		out = append(out, c)
	}
	out = append(out, occupancy(prefixes, cfg))
	return out
}

// occupancy is the coupon/occupancy test over first outputs.
func occupancy(prefixes [][]uint64, cfg Config) Check {
	k := cfg.OccupancyBuckets
	n := len(prefixes)
	shift := 64 - uint(bitsFor(k))
	occupied := make([]bool, k)
	for _, p := range prefixes {
		occupied[int(p[0]>>shift)%k] = true
	}
	empty := 0
	for _, o := range occupied {
		if !o {
			empty++
		}
	}
	// Exact occupancy moments for n balls in k bins:
	// E = k(1−1/k)ⁿ, Var = k(k−1)(1−2/k)ⁿ + k(1−1/k)ⁿ − k²(1−1/k)²ⁿ.
	kf, nf := float64(k), float64(n)
	mean := kf * math.Pow(1-1/kf, nf)
	varE := kf*(kf-1)*math.Pow(1-2/kf, nf) + mean - kf*kf*math.Pow(1-1/kf, 2*nf)
	if varE < 1e-12 {
		varE = 1e-12
	}
	z := (float64(empty) - mean) / math.Sqrt(varE)
	// The empty count is small and lattice-valued; a loose two-sided
	// band (alpha/10 of the battery default would be too twitchy for
	// a discrete statistic) keeps the false-alarm budget honest.
	p := twoSidedP(z)
	return Check{
		Name: "first-output-occupancy",
		Detail: fmt.Sprintf("%d first outputs into %d buckets: %d empty (expect %.1f ± %.1f, z = %.2f)",
			n, k, empty, mean, math.Sqrt(varE), z),
		P:    p,
		Pass: p >= 1e-5,
	}
}

// fingerprint hashes a word window with a SplitMix64-style chained
// mix — collision-free in practice at 64 bits over the window counts
// this battery produces, and every hit is verified anyway.
func fingerprint(ws []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range ws {
		h = baselines.Finalize64(h ^ w)
	}
	return h
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bitsFor returns ⌈log₂ k⌉ for k ≥ 1.
func bitsFor(k int) int {
	b := 0
	for 1<<b < k {
		b++
	}
	return b
}
