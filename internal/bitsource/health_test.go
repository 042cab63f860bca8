package bitsource

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/rng"
)

// Stats is a point-in-time snapshot of a Monitor's calibration and
// trip state.
type Stats struct {
	Tripped   bool
	Failure   string // empty until tripped
	RCTCutoff int
	APTCutoff int
	APTWindow int
}

// Stats returns the monitor's calibration and trip state. Unlike the
// test counters themselves, everything here is immutable or atomic,
// so Stats is safe to call while another goroutine draws.
func (m *Monitor) Stats() Stats {
	s := Stats{
		RCTCutoff: m.rctBound,
		APTCutoff: m.aptBound,
		APTWindow: aptWindow,
	}
	if e := m.err.Load(); e != nil {
		s.Tripped = true
		s.Failure = e.Error()
	}
	return s
}

// RCTCutoff and APTCutoff expose the calibrated bounds.
func (m *Monitor) RCTCutoff() int { return m.rctBound }
func (m *Monitor) APTCutoff() int { return m.aptBound }

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(nil, 8); err == nil {
		t.Error("nil source should fail")
	}
	src := baselines.NewSplitMix64(1)
	if _, err := NewMonitor(src, 0); err == nil {
		t.Error("zero entropy claim should fail")
	}
	if _, err := NewMonitor(src, 9); err == nil {
		t.Error("entropy claim > 8 should fail")
	}
	if _, err := NewMonitor(src, math.NaN()); err == nil {
		t.Error("NaN entropy claim should fail")
	}
	// The floor's RCT cutoff is the largest RestoreMonitor takes.
	if _, err := NewMonitor(src, math.Nextafter(HMinFloor, 0)); err == nil {
		t.Error("entropy claim below the floor should fail")
	}
	if m, err := NewMonitor(src, HMinFloor); err != nil {
		t.Errorf("claim at the floor refused: %v", err)
	} else if m.RCTCutoff() != monitorMaxBound {
		t.Errorf("claim at the floor: RCT cutoff %d, want %d", m.RCTCutoff(), monitorMaxBound)
	}
}

func TestMonitorForceTrip(t *testing.T) {
	m, err := NewMonitor(baselines.NewSplitMix64(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tripped() {
		t.Fatal("fresh monitor tripped")
	}
	m.ForceTrip("drill")
	if !m.Tripped() {
		t.Fatal("ForceTrip did not trip")
	}
	he, ok := m.Err().(*HealthError)
	if !ok || he.Test != "forced" || !strings.Contains(he.Detail, "drill") {
		t.Fatalf("Err = %v", m.Err())
	}
	// First failure stays sticky across further forced trips.
	m.ForceTrip("second")
	if m.Err() != error(he) {
		t.Error("forced trip overwrote the first failure")
	}
	m.Uint64() // must stay usable
}

func TestMonitorStatsConcurrentWithDraws(t *testing.T) {
	m, err := NewMonitor(baselines.NewSplitMix64(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Tripped || st.Failure != "" {
		t.Fatalf("fresh stats: %+v", st)
	}
	if st.RCTCutoff != m.RCTCutoff() || st.APTCutoff != m.APTCutoff() || st.APTWindow != 512 {
		t.Fatalf("stats cutoffs: %+v", st)
	}
	// Scrape from another goroutine while drawing — the /metrics
	// pattern; run under -race in CI.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = m.Stats()
			_ = m.Err()
			_ = m.Tripped()
		}
	}()
	for i := 0; i < 10000; i++ {
		m.Uint64()
	}
	<-done
	m.ForceTrip("after")
	if st := m.Stats(); !st.Tripped || st.Failure == "" {
		t.Fatalf("tripped stats: %+v", st)
	}
}

func TestMonitorCutoffs(t *testing.T) {
	m, err := NewMonitor(baselines.NewSplitMix64(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Full entropy: RCT cutoff = 1 + ⌈30/8⌉ = 5.
	if m.RCTCutoff() != 5 {
		t.Errorf("RCT cutoff = %d, want 5", m.RCTCutoff())
	}
	// APT cutoff must be far above the expectation 512/256 = 2 but
	// far below the window.
	if m.APTCutoff() < 8 || m.APTCutoff() > 64 {
		t.Errorf("APT cutoff = %d, outside a plausible band", m.APTCutoff())
	}
	// Weaker claim → larger cutoffs.
	m4, _ := NewMonitor(baselines.NewSplitMix64(1), 4)
	if m4.RCTCutoff() <= m.RCTCutoff() || m4.APTCutoff() <= m.APTCutoff() {
		t.Error("weaker entropy claim must loosen the cutoffs")
	}
}

// TestMonitorCalibrationShared checks the per-hMin cutoff cache from
// several goroutines at once: every monitor gets exactly the cutoffs a
// fresh computation gives, including claims past the cache's bound.
func TestMonitorCalibrationShared(t *testing.T) {
	hMins := []float64{0.5, 1, 2, 3.3, 4, 8}
	for i := 0; i < maxCalibrations; i++ {
		hMins = append(hMins, 0.1+float64(i)/10)
	}
	want := make([][2]int, len(hMins))
	for i, h := range hMins {
		want[i] = [2]int{1 + int(math.Ceil(30/h)), critBinom(512, math.Exp2(-h), math.Exp2(-30))}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, h := range hMins {
				m, err := NewMonitor(baselines.NewSplitMix64(1), h)
				if err != nil {
					t.Error(err)
					return
				}
				if got := [2]int{m.RCTCutoff(), m.APTCutoff()}; got != want[i] {
					t.Errorf("hMin %g: cutoffs %v, want %v", h, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestMonitorPassesHealthySource(t *testing.T) {
	m, err := NewMonitor(baselines.NewSplitMix64(7), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		m.Uint64()
	}
	if m.Tripped() {
		t.Fatalf("healthy source tripped: %v", m.Err())
	}
	if m.Err() != nil {
		t.Fatal("Err non-nil without trip")
	}
}

func TestMonitorPassesGlibcAtConservativeClaim(t *testing.T) {
	m, err := NewMonitor(baselines.NewGlibcRand(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		m.Uint64()
	}
	if m.Tripped() {
		t.Fatalf("glibc feed tripped at the conservative claim: %v", m.Err())
	}
}

func TestMonitorTripsOnStuckSource(t *testing.T) {
	stuck := rng.Func(func() uint64 { return 0x4242424242424242 })
	m, err := NewMonitor(stuck, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && !m.Tripped(); i++ {
		m.Uint64()
	}
	if !m.Tripped() {
		t.Fatal("stuck-at source not detected")
	}
	he, ok := m.Err().(*HealthError)
	if !ok || he.Test != "repetition-count" {
		t.Fatalf("expected repetition-count failure, got %v", m.Err())
	}
	if !strings.Contains(he.Error(), "repetition-count") {
		t.Errorf("error text: %v", he)
	}
}

func TestMonitorTripsOnBiasedSource(t *testing.T) {
	// Each byte is 0xAB with probability 1/16, otherwise random (and
	// never 0xAB): runs stay far below the RCT cutoff, but whenever
	// an APT window samples 0xAB it sees ≈ 32 matches in 512 bytes
	// against a cutoff calibrated for ≈ 2 — an APT-only failure.
	// (Deterministic periodic patterns would phase-lock the window
	// sample and can slip past APT entirely; the randomised bias
	// cannot.)
	inner := baselines.NewSplitMix64(5)
	biased := rng.Func(func() uint64 {
		var v uint64
		for b := 0; b < 8; b++ {
			r := byte(inner.Uint64())
			if r < 16 {
				r = 0xAB
			} else if r == 0xAB {
				r = 0x11
			}
			v |= uint64(r) << (8 * b)
		}
		return v
	})
	m, err := NewMonitor(biased, 8)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10000 && !m.Tripped(); j++ {
		m.Uint64()
	}
	if !m.Tripped() {
		t.Fatal("biased source not detected")
	}
	he := m.Err().(*HealthError)
	if he.Test != "adaptive-proportion" {
		t.Fatalf("expected adaptive-proportion failure, got %v", m.Err())
	}
}

func TestMonitorStaysTrippedAndUsable(t *testing.T) {
	stuck := rng.Func(func() uint64 { return 0 })
	m, _ := NewMonitor(stuck, 8)
	for i := 0; i < 20; i++ {
		m.Uint64() // must not panic after tripping
	}
	first := m.Err()
	m.Uint64()
	if m.Err() != first {
		t.Error("first failure must be sticky")
	}
}

// TestMonitorTrippedBuildsNoText drives a stuck feed past its first
// trip at hMin 4. From there every byte reaches the RCT cutoff, and
// the APT cutoff too once a window has met it, but a tripped monitor
// keeps its first failure: neither a word nor a 384-word bin, which
// bisects down to the per-byte loop, may allocate failure text. The first
// trip's text and the per-byte reference's state must hold after the
// draws.
func TestMonitorTrippedBuildsNoText(t *testing.T) {
	const stuck = 0x4242424242424242
	drawn := 0
	m, err := NewMonitor(rng.Func(func() uint64 { drawn++; return stuck }), 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RestoreMonitor(baselines.NewSplitMix64(0), marshalMonitor(t, m))
	if err != nil {
		t.Fatal(err)
	}
	for !m.Tripped() {
		m.Uint64()
	}
	first := m.Err().Error()
	bin := make([]uint64, 384)
	if allocs := testing.AllocsPerRun(100, func() { m.Uint64() }); allocs != 0 {
		t.Errorf("Uint64 after the trip: %v allocations per word, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.FillWords(bin) }); allocs != 0 {
		t.Errorf("FillWords after the trip: %v allocations per 384-word bin, want 0", allocs)
	}
	if got := m.Err().Error(); got != first {
		t.Errorf("failure text moved from %q to %q", first, got)
	}
	for range drawn {
		checkWordByBytes(ref, stuck)
	}
	if got, want := marshalMonitor(t, m), marshalMonitor(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("after %d words: state\n%x\nper-byte state\n%x", drawn, got, want)
	}
}

func TestCritBinom(t *testing.T) {
	// p = 0.5, n = 10, alpha = 1: essentially everything allowed
	// (cutoff 0 or 1 depending on floating rounding of the total
	// probability mass).
	if c := critBinom(10, 0.5, 1.0); c > 1 {
		t.Errorf("critBinom(alpha=1) = %d", c)
	}
	// Tiny alpha forces the cutoff to the top.
	if c := critBinom(10, 0.5, 1e-12); c < 10 {
		t.Errorf("critBinom(alpha=1e-12) = %d", c)
	}
	// Monotone in alpha.
	if critBinom(512, 1.0/256, 1e-9) < critBinom(512, 1.0/256, 1e-3) {
		t.Error("cutoff must grow as alpha shrinks")
	}
}
