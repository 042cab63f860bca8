package core

import "repro/internal/expander"

// MaxBatchLanes is the widest lockstep batch the batched kernel
// advances per loop iteration: two AVX2 registers of eight lanes each
// for x and for y, whose independent steps keep the vector ports busy;
// wider batches spill the lane state out of registers without buying
// more ILP.
const MaxBatchLanes = 16

// vecMinLanes is the smallest group the AVX2 round kernel walks in
// lockstep, padded to sixteen lanes; smaller groups walk lane by lane
// through chunk21. Against lane-by-lane walks, the padded kernel filled
// at 0.66× the MB/s with two lanes, 0.83× with three, 1.06× with four,
// 1.25× with five, 1.44× with six and 1.87× with eight
// (BenchmarkFillBatch, medians of 6 alternated runs at -cpu 1, 2-vCPU
// Xeon @ 2.1 GHz); 10 more runs read 0.94× at three and 1.12× at four.
const vecMinLanes = 4

// FillBatch fills dst[i] with len(dst[i]) successive numbers from
// ws[i]. On AVX2 hosts a group of vecMinLanes lanes or more advances in
// lockstep, MaxBatchLanes independent walks per kernel step, so the
// vector pipelines stay full instead of waiting on one walk's steps —
// the blocked-generation idiom MTGP uses on GPUs, applied to a
// superscalar core. Other groups walk lane by lane through the
// three-step table (chunk21).
//
// The sweep runs in rounds. Each round every lane draws one bin — the
// feed bits of its next r numbers, drawn and health-checked in one
// rng.BitReader.Bin call — and the walk then reads each lane's 63-bit
// chunks and 3-bit tail fields out of the bins by funnel shift, every
// lane at the same offsets: the AVX2 kernel reads all sixteen lanes'
// bins itself, each lane its own bin the way a GPU thread does. Every
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
// call. Walkers whose WalkLen differs from the first bin-fed lane's,
// or whose one number needs more feed bits than a bin holds, fall back
// to their scalar Fill (same output, no lockstep speedup), as does a
// group of one lane owing fewer than binMinFill numbers.
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
	g := getBins(lead)
	defer putBins(lead, g)
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
			lanes[j].bits.Bin(g.bins[j][:], uint(r*per))
		}
		if haveAVX2 && n >= vecMinLanes {
			walkBins(g, &x, &y, &outs, n, r, chunks, tail)
		} else {
			// Each lane walks its own bin with its state in registers.
			for j := 0; j < n; j++ {
				x[j], y[j] = walkBin(&g.bins[j], x[j], y[j], outs[j][:r], chunks, tail)
			}
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
