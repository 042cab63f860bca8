package rng

// Interleaved serves words from a set of sources in strict round-robin
// order: word t comes from source t mod len(sources). It is the
// multi-source adapter the statistical batteries accept to judge an
// *ensemble* of streams as one composite stream — inter-stream
// structure that no per-stream battery can see (two aliased streams,
// lag-correlated neighbours, a common bad prefix) becomes ordinary
// serial structure of the interleaved stream, where the serial-pairs,
// birthday-spacings and autocorrelation-family tests catch it.
//
// Not safe for concurrent use, like every Source in this repository.
type Interleaved struct {
	srcs []Source
	next int
}

// Interleave builds the round-robin composite of srcs. It panics when
// srcs is empty or contains a nil source: an interleaved battery over
// nothing is a test-harness bug, not a runtime condition.
func Interleave(srcs ...Source) *Interleaved {
	if len(srcs) == 0 {
		panic("rng: Interleave of zero sources")
	}
	for _, s := range srcs {
		if s == nil {
			panic("rng: Interleave with nil source")
		}
	}
	c := make([]Source, len(srcs))
	copy(c, srcs)
	return &Interleaved{srcs: c}
}

// Uint64 returns the next word of the composite stream.
func (it *Interleaved) Uint64() uint64 {
	v := it.srcs[it.next].Uint64()
	it.next++
	if it.next == len(it.srcs) {
		it.next = 0
	}
	return v
}
