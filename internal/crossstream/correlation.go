package crossstream

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/baselines"
	"repro/internal/stats"
)

// pairStat is one (pair, lag, orientation) correlation statistic.
type pairStat struct {
	i, j, lag int
	z         float64
}

// Correlation runs the pairwise cross-correlation check: for every
// selected stream pair and every configured word lag, the bitwise
// agreement count between the two prefixes is Binomial(64·w, ½)
// under H0 (independent uniform streams), so its normalised z is
// standard normal. Three aggregate verdicts come out:
//
//   - extreme: no statistic may exceed the Bonferroni threshold for
//     the family size — catches a single aliased or lag-shifted pair;
//   - mean: the ensemble mean of all z's (√m-normalised) must be
//     ordinary — catches weak correlation smeared across the whole
//     ensemble, which no single pair would flag;
//   - uniformity: the mid-p values of all statistics, binned into
//     equiprobable normal bins, must be chi-square flat — catches
//     distributional weirdness short of an extreme.
//
// The mid-p correction (half-weighting the lattice cell) keeps the
// uniformity check honest: agreement counts live on an integer
// lattice, and naive Φ(z) values would fail chi-square on grid
// alignment alone at these sample sizes.
func Correlation(prefixes [][]uint64, cfg Config) []Check {
	n := len(prefixes)
	w := cfg.CorrWords
	pairs := selectPairs(n, cfg.MaxPairs, cfg.SampleSeed)

	const nbins = 20
	var (
		maxStat pairStat
		sumZ    float64
		m       int
		binned  [nbins]float64
	)
	for _, pr := range pairs {
		a, b := prefixes[pr[0]], prefixes[pr[1]]
		for _, lag := range cfg.Lags {
			orientations := [][2][]uint64{{a[:w], b[lag : lag+w]}}
			if lag > 0 {
				orientations = append(orientations, [2][]uint64{a[lag : lag+w], b[:w]})
			}
			for _, o := range orientations {
				z, u := agreementZ(o[0], o[1])
				m++
				sumZ += z
				binned[binOf(u, nbins)]++
				if math.Abs(z) > math.Abs(maxStat.z) {
					maxStat = pairStat{i: pr[0], j: pr[1], lag: lag, z: z}
				}
			}
		}
	}
	if m == 0 {
		return []Check{{Name: "pairwise-correlation", Detail: "no pairs selected", P: 1, Pass: true}}
	}

	var out []Check

	thresh := stats.BonferroniZ(m, cfg.Alpha)
	pAdj := math.Min(1, float64(m)*twoSidedP(maxStat.z))
	out = append(out, Check{
		Name: "pairwise-correlation-extreme",
		Detail: fmt.Sprintf("%d pairs × %d lags (%d stats over %d-word windows): max |z| = %.2f at streams (%d, %d) lag %d, threshold %.2f",
			len(pairs), len(cfg.Lags), m, w, math.Abs(maxStat.z), maxStat.i, maxStat.j, maxStat.lag, thresh),
		P:    pAdj,
		Pass: math.Abs(maxStat.z) <= thresh,
	})

	zMean := sumZ / math.Sqrt(float64(m))
	pMean := twoSidedP(zMean)
	out = append(out, Check{
		Name:   "pairwise-correlation-mean",
		Detail: fmt.Sprintf("ensemble mean correlation: z = %.3f over %d stats", zMean, m),
		P:      pMean,
		Pass:   pMean >= cfg.Alpha,
	})

	mass := latticeBinMass(64*w, nbins)
	expected := make([]float64, nbins)
	for i := range expected {
		expected[i] = float64(m) * mass[i]
	}
	chi, err := stats.ChiSquare(binned[:], expected, 5, 0)
	if err != nil {
		out = append(out, Check{Name: "pairwise-correlation-uniformity",
			Detail: "chi-square: " + err.Error(), Pass: false})
		return out
	}
	pFlat := chi.Survival()
	out = append(out, Check{
		Name:   "pairwise-correlation-uniformity",
		Detail: fmt.Sprintf("mid-p uniformity over %d stats: chi² = %.1f (df %.0f), p = %.4f", m, chi.Statistic, chi.DF, pFlat),
		P:      pFlat,
		Pass:   pFlat >= cfg.Alpha,
	})
	return out
}

// selectPairs returns the pair set: every pair when the budget
// allows, otherwise all adjacent (i, i+1) and (i, i+2) pairs — the
// nearby-seed pairs where derivation bugs cluster — topped up with a
// deterministic uniform sample.
func selectPairs(n, maxPairs int, seed uint64) [][2]int {
	total := n * (n - 1) / 2
	if maxPairs <= 0 || total <= maxPairs {
		out := make([][2]int, 0, total)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
		return out
	}
	seen := make(map[int]struct{}, maxPairs)
	out := make([][2]int, 0, maxPairs)
	push := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		key := i*n + j
		if _, dup := seen[key]; dup || i == j {
			return
		}
		seen[key] = struct{}{}
		out = append(out, [2]int{i, j})
	}
	for i := 0; i+1 < n && len(out) < maxPairs; i++ {
		push(i, i+1)
	}
	for i := 0; i+2 < n && len(out) < maxPairs; i++ {
		push(i, i+2)
	}
	rnd := baselines.NewSplitMix64(seed).Uint64
	for len(out) < maxPairs {
		push(int(rnd()%uint64(n)), int(rnd()%uint64(n)))
	}
	return out
}

// binOf maps a mid-p value into its uniformity bin.
func binOf(u float64, nbins int) int {
	b := int(u * float64(nbins))
	if b < 0 {
		b = 0
	}
	if b >= nbins {
		b = nbins - 1
	}
	return b
}

// latticeBinMass returns the exact H0 probability of each mid-p bin.
// Agreement counts are Binomial(T, ½) on an integer lattice, so even
// mid-p values are only approximately uniform: the residual bin-edge
// mass shifts are O(1/√T) per bin, which exceeds the chi-square
// noise floor (O(1/√m)) once the battery aggregates enough pair
// statistics. Comparing observed counts against the exact lattice
// pushforward instead of a flat expectation keeps the uniformity
// check calibrated at every ensemble size. All statistics in a run
// share the same window length, hence one mass table.
func latticeBinMass(t, nbins int) []float64 {
	mass := make([]float64, nbins)
	rt := math.Sqrt(float64(t))
	half := int(6*rt)/2 + 1 // |z| ≤ 12 covers all but ~1e-32 of mass
	lo, hi := t/2-half, t/2+half
	if lo < 0 {
		lo = 0
	}
	if hi > t {
		hi = t
	}
	var sum float64
	for k := lo; k <= hi; k++ {
		p := math.Exp(stats.BinomialLogPMF(t, k, 0.5))
		d := float64(2*k - t)
		u := 0.5 * (stats.NormalCDF((d-1)/rt) + stats.NormalCDF((d+1)/rt))
		mass[binOf(u, nbins)] += p
		sum += p
	}
	// mid-p is monotone in the agreement count, so the truncated
	// lower/upper tails belong to the first/last bins.
	if tail := (1 - sum) / 2; tail > 0 {
		mass[0] += tail
		mass[nbins-1] += tail
	}
	return mass
}

// agreementZ compares two equal-length word windows bit for bit and
// returns the normalised agreement statistic z = (2M − T)/√T (M
// matching bits of T) plus the mid-p CDF value, which is uniform on
// [0,1] under H0 up to O(1/T) even on the integer lattice.
func agreementZ(a, b []uint64) (z, midP float64) {
	var mismatch int
	for k := range a {
		mismatch += bits.OnesCount64(a[k] ^ b[k])
	}
	t := 64 * len(a)
	d := float64(2*(t-mismatch) - t) // 2M − T
	rt := math.Sqrt(float64(t))
	z = d / rt
	midP = 0.5 * (stats.NormalCDF((d-1)/rt) + stats.NormalCDF((d+1)/rt))
	if midP >= 1 {
		midP = math.Nextafter(1, 0)
	}
	return z, midP
}

// twoSidedP is the two-sided normal p-value of z.
func twoSidedP(z float64) float64 {
	return math.Erfc(math.Abs(z) / math.Sqrt2)
}
