package baselines

import (
	"math/big"
	"slices"
	"testing"
)

// TestDefaultMultipliersAreGood checks that DefaultMWCMultipliers is
// the twelve largest a < 2^32 with a·2^32−1 and a·2^31−1 both prime.
// ProbablyPrime is exact below 2^64.
func TestDefaultMultipliersAreGood(t *testing.T) {
	prime := func(n uint64) bool { return new(big.Int).SetUint64(n).ProbablyPrime(0) }
	var good []uint32
	for a := uint32(1<<32 - 1); len(good) < len(DefaultMWCMultipliers); a-- {
		if m := uint64(a) << 32; prime(m-1) && prime(m>>1-1) {
			good = append(good, a)
		}
	}
	if !slices.Equal(good, DefaultMWCMultipliers) {
		t.Errorf("largest good multipliers = %v, table has %v", good, DefaultMWCMultipliers)
	}
}
