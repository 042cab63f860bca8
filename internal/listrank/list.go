// Package listrank implements the paper's first application: list
// ranking on the hybrid platform (Section V). It provides the linked
// list substrate, a sequential ranker (ground truth), one multicore
// ranker — the fractional-independent-set (FIS) reduction of
// Algorithm 3 with on-demand randomness, Helman–JáJá sublist ranking
// of the reduced list, and reinsertion — and the Figure 7 timing
// model over the simulated platform.
package listrank

import (
	"fmt"

	"repro/internal/rng"
)

// List is a singly linked list of n nodes stored as arrays
// (structure-of-arrays, the GPU-friendly layout the paper uses).
// Node ids are 0..n-1; Succ[i] == -1 marks the tail and Pred[i] ==
// -1 the head.
type List struct {
	Succ []int32
	Pred []int32
	Head int32
}

// Len returns the number of nodes.
func (l *List) Len() int { return len(l.Succ) }

// NewRandomList builds a list of n nodes whose order is a uniform
// random permutation — the paper's hardest case ("random lists are
// the most difficult to rank due to their irregular memory access
// patterns").
func NewRandomList(n int, src rng.Source) (*List, error) {
	if n < 1 {
		return nil, fmt.Errorf("listrank: n = %d < 1", n)
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("listrank: n = %d exceeds int32 node ids", n)
	}
	// Random permutation order[pos] = node at position pos.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.Uint64n(src, uint64(i+1)))
		order[i], order[j] = order[j], order[i]
	}
	l := &List{
		Succ: make([]int32, n),
		Pred: make([]int32, n),
		Head: order[0],
	}
	for pos := 0; pos < n; pos++ {
		node := order[pos]
		if pos+1 < n {
			l.Succ[node] = order[pos+1]
		} else {
			l.Succ[node] = -1
		}
		if pos > 0 {
			l.Pred[node] = order[pos-1]
		} else {
			l.Pred[node] = -1
		}
	}
	return l, nil
}

// SequentialRanks walks the list from the head and returns each
// node's distance from the head (head = 0) — the ground truth.
func SequentialRanks(l *List) ([]int64, error) {
	n := l.Len()
	ranks := make([]int64, n)
	visited := 0
	for cur, r := l.Head, int64(0); cur != -1; cur, r = l.Succ[cur], r+1 {
		ranks[cur] = r
		visited++
		if visited > n {
			return nil, fmt.Errorf("listrank: cycle detected")
		}
	}
	if visited != n {
		return nil, fmt.Errorf("listrank: list is broken, visited %d of %d", visited, n)
	}
	return ranks, nil
}
