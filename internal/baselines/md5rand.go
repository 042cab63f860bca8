package baselines

import (
	"crypto/md5"
	"encoding/binary"
)

// MD5Rand is a counter-mode MD5 generator in the style of CUDPP's
// rand() (Tzeng & Wei, "Parallel white noise generation on a GPU via
// cryptographic hash", I3D 2008): block i of the stream is
// MD5(seed ‖ counter), yielding 128 bits (two 64-bit words) per
// hash. Quality is cryptographic; speed is poor — exactly the CUDPP
// trade-off the paper's Table I records (high quality, speed rank 3,
// not on-demand, limited scalability).
type MD5Rand struct {
	seed    uint64
	counter uint64
	buf     [2]uint64
	have    int // unread words left in buf
}

// NewMD5Rand returns a counter-mode MD5 generator.
func NewMD5Rand(seed uint64) *MD5Rand {
	return &MD5Rand{seed: seed}
}

// Uint64 returns the next 64-bit word, hashing a fresh block every
// second call.
func (g *MD5Rand) Uint64() uint64 {
	if g.have == 0 {
		var msg [16]byte
		binary.LittleEndian.PutUint64(msg[0:8], g.seed)
		binary.LittleEndian.PutUint64(msg[8:16], g.counter)
		g.counter++
		sum := md5.Sum(msg[:])
		g.buf[0] = binary.LittleEndian.Uint64(sum[0:8])
		g.buf[1] = binary.LittleEndian.Uint64(sum[8:16])
		g.have = 2
	}
	g.have--
	return g.buf[g.have]
}
