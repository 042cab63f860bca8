package fleet

import (
	"math/bits"
	"sort"
)

// Placement: logical shard ranges onto nodes, bounded by derated
// capacity. The discipline is the one a GPU scheduler applies to
// device memory — compute the node's real budget, charge every
// assignment against it, and refuse to place past it, parking the
// overflow as pending instead. A pending range is visible, honest
// backlog; an over-committed node is a latency lie told to every
// client that lands on it.

// deratedLocked is the node's declared capacity scaled by the
// healthy fraction of its pool, as of the last heartbeat. A node
// that has not reported pool health yet is charged at full declared
// capacity (registration precedes the first heartbeat by design).
// Dead, draining and drained nodes rate zero — nothing may be
// placed on them. The product is taken in 128 bits: capacity and
// both shard counts come from node-sent JSON. Heartbeat rejects
// healthy > shards, so the quotient fits and Div64 cannot panic.
func (c *Controller) deratedLocked(n *node) uint64 {
	switch n.state {
	case StateDead, StateDraining, StateDrained:
		return 0
	}
	if n.shards <= 0 {
		return n.capacity
	}
	hi, lo := bits.Mul64(n.capacity, uint64(n.healthy))
	q, _ := bits.Div64(hi, lo, uint64(n.shards))
	return q
}

// budgetLocked converts derated words/s into whole logical shards.
func (c *Controller) budgetLocked(n *node) uint64 {
	return c.deratedLocked(n) / c.cfg.StreamWords
}

// spareLocked is the unassigned remainder of a node's budget.
func (c *Controller) spareLocked(n *node) uint64 {
	b := c.budgetLocked(n)
	if w := width(n.assigned); w < b {
		return b - w
	}
	return 0
}

// placeLocked drains the pending list onto alive nodes with spare
// budget, splitting ranges as needed. Deterministic: the node with
// the most spare budget wins each grant (ties broken by ID), so the
// fleet levels out and equal histories place equally. Suspect nodes
// keep what they hold but receive nothing new — the controller does
// not bet fresh streams on a node it doubts.
func (c *Controller) placeLocked() {
	c.pending = normalize(c.pending)
	for len(c.pending) > 0 {
		var best *node
		var bestSpare uint64
		for _, n := range c.sortedNodesLocked() {
			if n.state != StateAlive {
				continue
			}
			if s := c.spareLocked(n); s > bestSpare {
				best, bestSpare = n, s
			}
		}
		if best == nil {
			return
		}
		r := c.pending[0]
		take := r.Width()
		if take > bestSpare {
			take = bestSpare
		}
		best.assigned = normalize(append(best.assigned, Range{r.Lo, r.Lo + take}))
		if take == r.Width() {
			c.pending = c.pending[1:]
		} else {
			c.pending[0].Lo += take
		}
	}
}

// shedLocked trims a node back inside its budget after a capacity
// derate (pool degradation, a lowered declaration): excess ranges —
// highest logical shards first — go pending for placeLocked to move
// elsewhere. Shedding is what keeps the over-commit invariant true
// *through* degradation, not just at placement time.
func (c *Controller) shedLocked(n *node) {
	budget := c.budgetLocked(n)
	for width(n.assigned) > budget {
		last := &n.assigned[len(n.assigned)-1]
		over := width(n.assigned) - budget
		if cut := last.Width(); cut <= over {
			c.pending = append(c.pending, *last)
			n.assigned = n.assigned[:len(n.assigned)-1]
		} else {
			c.pending = append(c.pending, Range{last.Hi - over, last.Hi})
			last.Hi -= over
		}
	}
	c.pending = normalize(c.pending)
}

// sortedNodesLocked returns the nodes in ID order — every placement
// walk iterates deterministically, never in map order.
func (c *Controller) sortedNodesLocked() []*node {
	out := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
