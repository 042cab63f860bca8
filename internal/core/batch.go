package core

import (
	"repro/internal/expander"
)

// MaxBatchLanes is the widest lockstep batch the batched kernel
// advances per loop iteration. Sixteen independent walks are enough
// to hide the ~8-cycle serial dependency of one Gabber–Galil step
// behind the CPU's out-of-order window; wider batches spill the lane
// state out of registers/L1 without buying more ILP.
const MaxBatchLanes = 16

// FillBatch fills dst[i] with len(dst[i]) successive numbers from
// ws[i], advancing the walkers in lockstep: each loop iteration of
// the kernel performs one step of up to MaxBatchLanes *independent*
// walks, so the hardware pipelines stay full instead of stalling on
// one walk's serial x→y→x dependency chain. This is the blocked-
// generation idiom MTGP uses to keep GPU pipelines busy, applied to
// a superscalar CPU core.
//
// The sweep runs in rounds. Each round every lane draws one bin — the
// feed bits of its next r numbers, drawn and health-checked in one
// rng.BitReader.Bin call — and the kernel then reads each lane's 63-bit
// chunks and 3-bit tail fields out of the bins by funnel shift. Every
// walker consumes its own feed bits in exactly the order the scalar
// Next path consumes them (per number: the 63-bit chunks, then the
// 3-bit tail steps) and never draws a feed word early, so per-walker
// output and reader state are bitwise identical to calling
// ws[i].Fill(dst[i]) — batching is a pure reordering of independent
// walks, never a different stream. Lanes whose dst is shorter simply
// retire early; ragged batch shapes are fine.
//
// ws and dst must have equal length and the walkers must be
// distinct; no walker may be used concurrently elsewhere during the
// call. Walkers on small analysis graphs, or whose WalkLen differs
// from the first bin-fed lane's, fall back to their scalar Fill
// (same output, no lockstep speedup), as does a group of one lane
// owing fewer than binMinFill numbers.
func FillBatch(ws []*Walker, dst [][]uint64) {
	if len(ws) != len(dst) {
		panic("core: FillBatch lane count mismatch")
	}
	for start := 0; start < len(ws); start += MaxBatchLanes {
		end := start + MaxBatchLanes
		if end > len(ws) {
			end = len(ws)
		}
		fillBatchGroup(ws[start:end], dst[start:end])
	}
}

// fillBatchGroup runs one ≤MaxBatchLanes lockstep group. Lanes that
// cannot join the lockstep kernel (not bin-fed, mismatched walk
// length) are filled scalar first; the rest share the batched loop.
func fillBatchGroup(ws []*Walker, dst [][]uint64) {
	// The group's lockstep walk length is the first bin-fed lane's.
	walkLen := 0
	for _, w := range ws {
		if w.binFed() {
			walkLen = w.cfg.WalkLen
			break
		}
	}

	var (
		lanes [MaxBatchLanes]*Walker
		x, y  [MaxBatchLanes]uint32
		outs  [MaxBatchLanes][]uint64
	)
	n := 0
	for i, w := range ws {
		if len(dst[i]) == 0 {
			continue
		}
		if !w.binFed() || w.cfg.WalkLen != walkLen {
			w.Fill(dst[i])
			continue
		}
		lanes[n] = w
		x[n], y[n] = w.pos.X, w.pos.Y
		outs[n] = dst[i]
		n++
	}
	if n == 0 {
		return
	}
	if n == 1 && len(outs[0]) < binMinFill {
		lanes[0].Fill(outs[0]) // too short for a lone lane's bin to pay
		return
	}

	lead := lanes[0]
	bins := getBins(lead)
	defer putBins(lead, bins)
	per := walkLen * BitsPerStep
	chunks := walkLen / stepsPerChunk
	tail := walkLen % stepsPerChunk
	for n > 0 {
		// One round: r numbers per active lane, r the fewest any lane
		// still owes and at most a bin's worth. Every lane draws the
		// bin for exactly its next r numbers, so no lane over-draws
		// its feed, and all lanes read their bins at the same offsets.
		r := binBits / per
		for j := 0; j < n; j++ {
			r = min(r, len(outs[j]))
		}
		for j := 0; j < n; j++ {
			lanes[j].bits.Bin(bins[j][:], uint(r*per))
		}
		if n == 1 {
			// A lone lane walks its bin with its state in registers.
			x[0], y[0] = walkBin(&bins[0], x[0], y[0], outs[0][:r], chunks, tail)
		} else {
			walkBins(bins, &x, &y, &outs, n, r, chunks, tail)
		}
		// Retire lanes whose dst is full by swapping the last active
		// lane into their slot; the slot is then processed again, for
		// the lane just moved in.
		for j := 0; j < n; {
			lanes[j].count += uint64(r)
			if outs[j] = outs[j][r:]; len(outs[j]) == 0 {
				lanes[j].pos = expander.Vertex{X: x[j], Y: y[j]}
				n--
				lanes[j], x[j], y[j], outs[j] = lanes[n], x[n], y[n], outs[n]
				lanes[n], outs[n] = nil, nil
				continue
			}
			j++
		}
	}
}

// walkBins advances lanes 0..n-1 (n ≥ 2) through r numbers each from
// their bins in lockstep, writing number i of lane j to outs[j][i].
func walkBins(bins *binGroup, x, y *[MaxBatchLanes]uint32, outs *[MaxBatchLanes][]uint64, n, r, chunks, tail int) {
	var word [MaxBatchLanes]uint64
	off := uint(0)
	for i := 0; i < r; i++ {
		// One number per active lane: the chunked fast path first
		// (21 aligned 3-bit fields per 63-bit chunk), then the
		// per-step tail — the same per-walker feed order as walk().
		for c := 0; c < chunks; c++ {
			bw, sh := off>>6, off&63
			for j := 0; j < n; j++ {
				word[j] = binTake(&bins[j], bw, sh) >> 1
			}
			off += chunkBits
			// Octets go through the AVX2 kernel (one YMM register
			// per coordinate vector), quads through chunk21x4's
			// register-resident loop and the rest through chunk21 —
			// a memory round-trip per step would otherwise
			// serialise right back onto the walk's dependency chain.
			j := 0
			if haveStep8 {
				switch {
				case n >= 12:
					// Twelve or more lanes: the fused sixteen-wide
					// kernel, padded with scratch lanes when under
					// sixteen. The state arrays are MaxBatchLanes
					// wide and slots ≥ n are dead (stale or
					// retired), so computing garbage in them is
					// harmless — and one fused call overlaps the
					// two halves' dependency chains, which two
					// back-to-back eight-wide calls would not.
					step21x16(x, y, &word)
				default:
					// Two to eleven lanes: one eight-wide call,
					// scratch-padded below eight (two lanes padded
					// to eight ran 1.2× and three 1.6× the scalar
					// path's MB/s in BenchmarkFillBatch); lanes
					// 8-11 pad a second call rather than drop to
					// the scalar quad loop.
					step21x8(
						(*[8]uint32)(x[0:8]),
						(*[8]uint32)(y[0:8]),
						(*[8]uint64)(word[0:8]))
					if n > 8 {
						step21x8(
							(*[8]uint32)(x[8:16]),
							(*[8]uint32)(y[8:16]),
							(*[8]uint64)(word[8:16]))
					}
				}
				j = n
			}
			for ; j+4 <= n; j += 4 {
				chunk21x4(
					(*[4]uint32)(x[j:j+4]),
					(*[4]uint32)(y[j:j+4]),
					(*[4]uint64)(word[j:j+4]))
			}
			for ; j < n; j++ {
				x[j], y[j] = chunk21(x[j], y[j], word[j])
			}
		}
		for t := 0; t < tail; t++ {
			bw, sh := off>>6, off&63
			for j := 0; j < n; j++ {
				x[j], y[j] = stepXY(x[j], y[j], binTake(&bins[j], bw, sh)>>61)
			}
			off += BitsPerStep
		}
		for j := 0; j < n; j++ {
			outs[j][i] = uint64(x[j])<<32 | uint64(y[j])
		}
	}
}

// walkBin walks one lane through len(out) numbers from its bin b,
// starting at (x, y): per number, chunks 63-bit chunks and then tail
// 3-bit steps, the feed order of walk(). It returns the end position.
func walkBin(b *bin, x, y uint32, out []uint64, chunks, tail int) (uint32, uint32) {
	off := uint(0)
	for i := range out {
		for c := 0; c < chunks; c++ {
			x, y = chunk21(x, y, binTake(b, off>>6, off&63)>>1)
			off += chunkBits
		}
		for t := 0; t < tail; t++ {
			x, y = stepXY(x, y, binTake(b, off>>6, off&63)>>61)
			off += BitsPerStep
		}
		out[i] = uint64(x)<<32 | uint64(y)
	}
	return x, y
}

// chunk21x4 advances four lanes through one 63-bit feed chunk (21
// steps each). The eight coordinates and four chunk words live in
// locals for the duration, so each lane's serial x→y→x chain runs
// register-to-register and the four independent chains overlap in the
// out-of-order window — this function is where the batched kernel's
// speedup actually comes from.
func chunk21x4(x, y *[4]uint32, w *[4]uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	for k := chunkBits - BitsPerStep; k >= 0; k -= BitsPerStep {
		b0 := w0 >> uint(k) & 7
		b1 := w1 >> uint(k) & 7
		b2 := w2 >> uint(k) & 7
		b3 := w3 >> uint(k) & 7
		c0 := stepC[b0]
		y0 += (2*x0 + c0) & stepMaskY[b0]
		x0 += (2*y0 + c0) & stepMaskX[b0]
		c1 := stepC[b1]
		y1 += (2*x1 + c1) & stepMaskY[b1]
		x1 += (2*y1 + c1) & stepMaskX[b1]
		c2 := stepC[b2]
		y2 += (2*x2 + c2) & stepMaskY[b2]
		x2 += (2*y2 + c2) & stepMaskX[b2]
		c3 := stepC[b3]
		y3 += (2*x3 + c3) & stepMaskY[b3]
		x3 += (2*y3 + c3) & stepMaskX[b3]
	}
	x[0], x[1], x[2], x[3] = x0, x1, x2, x3
	y[0], y[1], y[2], y[3] = y0, y1, y2, y3
}

// NextBatch draws one number from each walker in lockstep, writing
// ws[i]'s number to out[i] — FillBatch with one word per lane.
func NextBatch(ws []*Walker, out []uint64) {
	if len(ws) != len(out) {
		panic("core: NextBatch lane count mismatch")
	}
	var segs [MaxBatchLanes][]uint64
	for start := 0; start < len(ws); start += MaxBatchLanes {
		end := start + MaxBatchLanes
		if end > len(ws) {
			end = len(ws)
		}
		group := segs[:end-start]
		for i := range group {
			group[i] = out[start+i : start+i+1]
		}
		fillBatchGroup(ws[start:end], group)
	}
}
