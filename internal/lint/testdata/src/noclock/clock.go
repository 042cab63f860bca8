// Package noclock exercises the noclock analyzer: wall-clock reads
// and global math/rand draws in library code.
package noclock

import (
	"math/rand"
	"time"
)

// Bad: direct wall-clock reads.
func stamps() (time.Time, time.Duration) {
	t := time.Now()    // want "time.Now reads the wall clock"
	d := time.Since(t) // want "time.Since reads the wall clock"
	return t, d
}

func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline) // want "time.Until reads the wall clock"
}

func waiter() <-chan time.Time {
	return time.After(time.Second) // want "time.After reads the wall clock"
}

// Bad: referencing the function without calling it is still a
// wall-clock dependency (the repo's default-clock assignments).
var defaultClock = time.Now // want "time.Now reads the wall clock"

// Bad: the global math/rand source.
func roll() int {
	return rand.Intn(6) // want "global math/rand source"
}

// Good: a real wait primitive is not a clock read.
func tick(stop chan struct{}) {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// Good: building a private generator around an injected seed is the
// sanctioned pattern.
func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Good: an injected clock threaded as a value.
type clocked struct {
	now func() time.Time
}

func (c clocked) stamp() time.Time { return c.now() }

// Suppressed: a justified wallclock marker on the same line.
func defaulted(now func() time.Time) func() time.Time {
	if now == nil {
		now = time.Now //lint:wallclock fixture default; the injection point is the parameter
	}
	return now
}

// Suppressed: a standalone marker covers the line below.
func standalone() time.Time {
	//lint:wallclock fixture: marker on its own line
	return time.Now()
}

// A marker that suppresses nothing is itself a finding.
// wantbelow "marker suppresses nothing"
//
//lint:wallclock nothing on this line reads a clock
func quiet() int { return 4 }

// A marker without a justification is itself a finding.
// wantbelow "marker needs a justification"
//
//lint:wallclock
func bare() time.Time { return time.Now() }
