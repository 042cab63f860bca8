package baselines

// MWC is the multiply-with-carry generator used by CUDAMCML
// (Alerstam, Svensson, Andersson-Engels 2008) — the "Original" RNG of
// the paper's Figure 8 photon-migration baseline. State is a 64-bit
// word holding value (low 32 bits) and carry (high 32 bits):
//
//	state = a·(state & 0xffffffff) + (state >> 32)
//
// and the output is the low 32 bits. The multiplier must be chosen so
// that a·2^32 - 1 is a safe prime; CUDAMCML ships a list of such
// multipliers (one per GPU thread). DefaultMWCMultipliers reproduces
// a slice of that list.
type MWC struct {
	a     uint64
	state uint64
}

// DefaultMWCMultipliers is a set of safe-prime multipliers of the
// kind CUDAMCML distributes to its threads (a·2^32−1 prime and
// a·2^31−1 prime ⇒ long period, independent streams). The values
// are the twelve largest good multipliers below 2^32; the package
// tests re-derive them with math/big's primality test, which is exact
// below 2^64.
var DefaultMWCMultipliers = []uint32{
	4294967118, 4294966893, 4294966830, 4294966284, 4294966164,
	4294965708, 4294965675, 4294964880, 4294964568, 4294963860,
	4294963023, 4294962654,
}

// NewMWC returns a multiply-with-carry generator with multiplier a
// and the given nonzero initial value x (carry starts at 0, as in
// CUDAMCML's init_RNG).
func NewMWC(a uint32, x uint32) *MWC {
	if x == 0 {
		x = 1 // the zero state is a fixed point
	}
	return &MWC{a: uint64(a), state: uint64(x)}
}

// NewMWCForThread mirrors CUDAMCML's per-thread initialisation: the
// thread id picks a multiplier, the seed provides the initial value.
func NewMWCForThread(thread int, seed uint32) *MWC {
	a := DefaultMWCMultipliers[thread%len(DefaultMWCMultipliers)]
	if seed == 0 {
		seed = uint32(thread + 1)
	}
	return NewMWC(a, seed)
}

// Uint32 advances the state and returns the low 32 bits.
func (g *MWC) Uint32() uint32 {
	g.state = g.a*(g.state&0xffffffff) + g.state>>32
	return uint32(g.state)
}

// Uint64 concatenates two 32-bit outputs, high word first.
func (g *MWC) Uint64() uint64 {
	hi := uint64(g.Uint32())
	lo := uint64(g.Uint32())
	return hi<<32 | lo
}
