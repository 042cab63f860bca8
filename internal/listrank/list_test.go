package listrank

import "fmt"

// Test fixtures: an ordered list, a structural check and a deep copy.

// NewOrderedList builds the identity list 0 → 1 → … → n−1.
func NewOrderedList(n int) (*List, error) {
	if n < 1 {
		return nil, fmt.Errorf("listrank: n = %d < 1", n)
	}
	l := &List{
		Succ: make([]int32, n),
		Pred: make([]int32, n),
		Head: 0,
	}
	for i := 0; i < n; i++ {
		l.Succ[i] = int32(i + 1)
		l.Pred[i] = int32(i - 1)
	}
	l.Succ[n-1] = -1
	return l, nil
}

// Validate checks structural consistency of the list.
func (l *List) Validate() error {
	n := l.Len()
	if len(l.Pred) != n {
		return fmt.Errorf("listrank: pred/succ length mismatch")
	}
	if l.Head < 0 || int(l.Head) >= n {
		return fmt.Errorf("listrank: head %d out of range", l.Head)
	}
	if l.Pred[l.Head] != -1 {
		return fmt.Errorf("listrank: head has a predecessor")
	}
	tails := 0
	for i := 0; i < n; i++ {
		s := l.Succ[i]
		if s == -1 {
			tails++
			continue
		}
		if s < 0 || int(s) >= n {
			return fmt.Errorf("listrank: node %d has bad successor %d", i, s)
		}
		if l.Pred[s] != int32(i) {
			return fmt.Errorf("listrank: pred/succ of %d inconsistent", i)
		}
	}
	if tails != 1 {
		return fmt.Errorf("listrank: %d tails, want 1", tails)
	}
	_, err := SequentialRanks(l)
	return err
}

// Clone deep-copies the list.
func (l *List) Clone() *List {
	return &List{
		Succ: append([]int32(nil), l.Succ...),
		Pred: append([]int32(nil), l.Pred...),
		Head: l.Head,
	}
}
