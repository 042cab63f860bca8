package listrank

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/rng"
)

// ReduceStats describes one FIS reduction run — the inputs to the
// Figure 7 timing model.
type ReduceStats struct {
	Iterations   int
	ActivePerIt  []int64 // list size at the start of each iteration
	RandomsDrawn int64   // numbers actually requested (on-demand count)
	Removed      int64
}

// FISRank is FISRankParallel with a single worker that draws every
// coin, and Phase II's splitters after them, from src.
func FISRank(l *List, src rng.Source) ([]int64, *ReduceStats, error) {
	return FISRankParallel(l, 1, func(int) rng.Source { return src })
}

// FISRankParallel ranks the list with the paper's three-phase
// algorithm, each parallel step run across worker goroutines:
//
//	Phase I  (Algorithm 3): repeatedly remove a fractional
//	         independent set — node u goes when b(u)=1 and both
//	         neighbours drew 0 — until ≤ n/log₂n nodes remain; each
//	         active node draws its bit on demand.
//	Phase II: rank the reduced list with the Helman–JáJá sublist
//	         ranker, whose splitters come from worker 0's source
//	         after Phase I (they are not counted in RandomsDrawn).
//	Phase III: reinsert the removed nodes in reverse order.
//
// Worker w draws its coins from newSrc(w), so the output is
// deterministic for a fixed (seed factory, workers) pair; the ranks
// equal SequentialRanks on every input (property-tested). A lone
// worker runs inline.
func FISRankParallel(l *List, workers int, newSrc func(worker int) rng.Source) ([]int64, *ReduceStats, error) {
	if newSrc == nil {
		return nil, nil, fmt.Errorf("listrank: nil source factory")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	srcs := make([]rng.Source, workers)
	for w := range srcs {
		srcs[w] = newSrc(w)
	}
	r, stats := reduce(l, srcs)
	ranks := make([]int64, l.Len())
	// Eight sublists per worker even out the walks' uneven lengths.
	helmanJaJa(ranks, l.Head, r.active, r.succ, r.val, 8*workers, srcs[0], workers)
	for i := len(r.removed) - 1; i >= 0; i-- {
		u := r.removed[i]
		ranks[u] = ranks[r.pred[u]] + r.val[u]
	}
	return ranks, stats, nil
}

// reduction is what Phase I leaves: the survivors, still threaded
// through succ and pred, each carrying in val its distance from the
// survivor before it; and the removed nodes in removal order. No cell
// of a removed node is written after its removal, so its pred and
// val still name the node it hangs from and its distance from it.
type reduction struct {
	succ, pred      []int32
	val             []int64
	active, removed []int32
}

// reduce runs Phase I with worker w drawing from srcs[w]. In each
// iteration worker w owns the w-th chunk of ⌈active/workers⌉
// survivors: it draws their coins (one on-demand number each, the
// call of Algorithm 3 line 6), then removes and splices out its FIS
// nodes, compacting the chunk's survivors and removals in place. The
// chunks then close up in order, so survivor order, and with it each
// worker's coin sequence, does not depend on scheduling.
//
// The splices need no synchronisation. A removed node u drew 1 and
// its neighbours drew 0, so the cells written for u (succ of its
// pred; pred and val of its succ) belong to nodes that are never
// removed, and no other removal writes them; the cells read for u
// (its own pred, succ and val, and the coins) are written by no one.
// A node that drew 0 is kept before its pred and succ, which a
// neighbour's removal may be rewriting, are read.
func reduce(l *List, srcs []rng.Source) (*reduction, *ReduceStats) {
	n, workers := l.Len(), len(srcs)
	succ := append([]int32(nil), l.Succ...)
	pred := append([]int32(nil), l.Pred...)
	val := make([]int64, n)
	active := make([]int32, n) // active[:live]: the survivors
	for i := range active {
		val[i] = 1
		active[i] = int32(i)
	}
	val[l.Head] = 0
	// removed[:gone] in removal order. live+gone = n, so the slots
	// past gone always have room for an iteration's removals.
	removed := make([]int32, n)
	live, gone := n, 0
	bits := make([]byte, n)
	kept := make([]int, workers)
	cut := make([]int, workers)
	stats := &ReduceStats{}
	for target := reduceTarget(n); live > target; {
		cnt, base := live, gone
		stats.Iterations++
		stats.ActivePerIt = append(stats.ActivePerIt, int64(cnt))
		stats.RandomsDrawn += int64(cnt)
		chunk := (cnt + workers - 1) / workers
		span := func(w int) (lo, hi int) {
			lo = min(w*chunk, cnt)
			return lo, min(lo+chunk, cnt)
		}
		each(workers, func(w int) {
			lo, hi := span(w)
			src := srcs[w]
			for _, u := range active[lo:hi] {
				bits[u] = byte(src.Uint64() & 1)
			}
		})
		each(workers, func(w int) {
			lo, hi := span(w)
			k, d := lo, base+lo
			for _, u := range active[lo:hi] {
				if bits[u] == 1 {
					if p, s := pred[u], succ[u]; p != -1 && s != -1 && bits[p] == 0 && bits[s] == 0 {
						val[s] += val[u]
						succ[p], pred[s] = s, p
						removed[d] = u
						d++
						continue
					}
				}
				active[k] = u
				k++
			}
			kept[w], cut[w] = k-lo, d-base-lo
		})
		// Close up the chunks in order; chunk 0 already starts in place.
		live, gone = kept[0], base+cut[0]
		for w := 1; w < workers; w++ {
			lo, _ := span(w)
			live += copy(active[live:], active[lo:lo+kept[w]])
			gone += copy(removed[gone:], removed[base+lo:base+lo+cut[w]])
		}
		stats.Removed += int64(gone - base)
	}
	return &reduction{succ, pred, val, active[:live], removed[:gone]}, stats
}

// reduceTarget returns the Phase I stopping size n/log₂n.
func reduceTarget(n int) int {
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	if lg < 1 {
		lg = 1
	}
	t := n / lg
	if t < 2 {
		t = 2
	}
	return t
}

// helmanJaJa is Phase II: the sublist ranker of Helman and JáJá,
// which the paper's reference [3] runs on the CPU, over weighted
// nodes. nodes lists the list's nodes in any order; succ threads
// them from head. It writes ranks[u] = Σ val over head..u for every
// u in nodes. The head and one random node from each of splitters
// equal blocks of nodes start sublists; workers walk the sublists,
// ranking within each; the chain of sublists is ranked in list order;
// then workers add each sublist's offset to its nodes.
func helmanJaJa(ranks []int64, head int32, nodes, succ []int32, val []int64, splitters int, src rng.Source, workers int) {
	sub := make([]int32, len(succ)) // sub[u] = i+1 when u starts sublist i
	heads := []int32{head}
	sub[head] = 1
	s := min(splitters, len(nodes))
	for b := 0; b < s; b++ {
		lo, hi := b*len(nodes)/s, (b+1)*len(nodes)/s
		if u := nodes[lo+int(rng.Uint64n(src, uint64(hi-lo)))]; sub[u] == 0 {
			heads = append(heads, u)
			sub[u] = int32(len(heads))
		}
	}
	sum := make([]int64, len(heads))  // each sublist's weight
	next := make([]int32, len(heads)) // the node after it, -1 past the tail
	each(workers, func(w int) {
		for i := w; i < len(heads); i += workers {
			u, r := heads[i], int64(0)
			for {
				r += val[u]
				ranks[u] = r
				if u = succ[u]; u == -1 || sub[u] != 0 {
					break
				}
			}
			sum[i], next[i] = r, u
		}
	})
	off := make([]int64, len(heads))
	for i, o := 0, int64(0); ; i = int(sub[next[i]]) - 1 {
		off[i], o = o, o+sum[i]
		if next[i] == -1 {
			break
		}
	}
	each(workers, func(w int) {
		for i := w; i < len(heads); i += workers {
			for u := heads[i]; ; {
				ranks[u] += off[i]
				if u = succ[u]; u == -1 || sub[u] != 0 {
					break
				}
			}
		}
	})
}

// each runs f(w) for every worker w and returns once all have
// finished; a lone worker runs inline.
func each(workers int, f func(w int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}
