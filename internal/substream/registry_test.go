package substream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	hybridprng "repro"
	"repro/internal/bitsource"
	"repro/internal/blob"
)

func mustRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func drawWords(t *testing.T, r *Registry, key string, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	if err := r.Fill(key, out); err != nil {
		t.Fatalf("Fill(%q, %d): %v", key, n, err)
	}
	return out
}

// control returns the first n words of key's stream drawn straight
// from a bare generator — the ground truth every registry path must
// reproduce.
func control(t *testing.T, root uint64, key string, n int) []uint64 {
	t.Helper()
	g, err := hybridprng.New(hybridprng.WithSeed(DeriveSeed(root, key)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, n)
	g.Fill(out)
	return out
}

func TestCanonicalEquivalentKeysShareStream(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 7})
	a := drawWords(t, r, "alice", 4)
	b := drawWords(t, r, "  alice\t", 4)
	want := control(t, 7, "alice", 8)
	if !equalWords(a, want[:4]) || !equalWords(b, want[4:]) {
		t.Fatalf("canonically-equal spellings did not continue one stream:\n%x\n%x\nwant %x", a, b, want)
	}
}

func TestKeyRejections(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 7})
	for _, key := range []string{
		"",
		"   \t ",
		string(make([]byte, MaxKeyBytes+1)),
		"bad\x00key",
		"bad\x7fkey",
		"new\nline",
		string([]byte{0xff, 0xfe}),
	} {
		dst := []uint64{0xdead, 0xbeef}
		err := r.Fill(key, dst)
		var ke *KeyError
		if !errors.As(err, &ke) {
			t.Fatalf("Fill(%q) error = %v, want *KeyError", key, err)
		}
		if dst[0] != 0 || dst[1] != 0 {
			t.Fatalf("Fill(%q) left stale words %x after error", key, dst)
		}
	}
}

// TestEvictedKeyResumesBitwise is the LRU correctness bar: forcing a
// tenant out of residency and drawing it back in must continue its
// stream exactly where it stopped.
func TestEvictedKeyResumesBitwise(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 99, MaxResident: 2})
	first := drawWords(t, r, "victim", 16)

	// Two fresher keys push "victim" off the 2-slot LRU.
	drawWords(t, r, "fresh-a", 1)
	drawWords(t, r, "fresh-b", 1)
	s := r.Stats()
	if s.Resident != 2 || s.Tenants != 3 || s.Evictions == 0 {
		t.Fatalf("after eviction pressure: %+v", s)
	}
	if v := s.PerTenant[len(s.PerTenant)-1]; v.Key != "victim" || v.Resident || v.Draws != 16 {
		t.Fatalf("parked victim's meters: %+v, want 16 draws", v)
	}

	second := drawWords(t, r, "victim", 16)
	want := control(t, 99, "victim", 32)
	if !equalWords(first, want[:16]) || !equalWords(second, want[16:]) {
		t.Fatalf("evicted key did not resume bitwise")
	}
	if v := r.Stats().PerTenant[2]; v.Key != "victim" || !v.Resident || v.Draws != 32 {
		t.Fatalf("unparked victim's meters: %+v, want 32 draws", v)
	}
}

func TestRegistryStateRoundTrip(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 2026, MaxResident: 2, HealthHMin: 4})
	keys := []string{"a", "b", "c", "d"} // 4 keys through a 2-slot LRU: some resident, some parked
	for i, k := range keys {
		drawWords(t, r, k, 8+i)
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// Marshal must not perturb the original: it keeps serving.
	contA := control(t, 2026, "a", 8+0+4)

	r2, err := Restore(blob, Config{MaxResident: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := drawWords(t, r2, "a", 4); !equalWords(got, contA[8:]) {
		t.Fatalf("restored registry did not resume key a bitwise: got %x want %x", got, contA[8:])
	}
	if got := drawWords(t, r, "a", 4); !equalWords(got, contA[8:]) {
		t.Fatalf("marshalled registry stopped serving key a bitwise: got %x want %x", got, contA[8:])
	}

	// Meters ride along in the blob.
	s := r2.Stats()
	if s.Tenants != 4 {
		t.Fatalf("restored tenants = %d, want 4", s.Tenants)
	}
	for _, ts := range s.PerTenant {
		if ts.Key == "b" && ts.Draws != 9 {
			t.Fatalf("tenant b draws = %d, want 9", ts.Draws)
		}
	}

	// A second marshal of the restored registry round-trips too.
	blob2, err := r2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(blob2, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryStateRejectsGarbage(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 1})
	drawWords(t, r, "k", 4)
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The blob ends with its one tenant's bucket level.
	level := func(v float64) []byte {
		out := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(out[len(out)-8:], math.Float64bits(v))
		return out
	}
	for name, mut := range map[string][]byte{
		"empty":          {},
		"short":          blob[:5],
		"truncated":      blob[:len(blob)-3],
		"badmagic":       append([]byte("xsubreg"), blob[7:]...),
		"trailing":       append(append([]byte{}, blob...), 0xee),
		"negative-level": level(-1),
		"nan-level":      level(math.NaN()),
	} {
		if _, err := Restore(mut, Config{}); err == nil {
			t.Fatalf("Restore(%s) accepted a corrupt blob", name)
		}
	}
}

func TestRateLimitWithFakeClock(t *testing.T) {
	now := time.Unix(1000, 0)
	r := mustRegistry(t, Config{
		RootSeed:   5,
		RatePerSec: 8,
		Burst:      16,
		Now:        func() time.Time { return now },
	})

	// The full burst serves immediately.
	drawWords(t, r, "t", 16)

	// Bucket empty: the next word is shed with a refill hint.
	dst := []uint64{77}
	err := r.Fill("t", dst)
	var rl *RateLimitError
	if !errors.As(err, &rl) {
		t.Fatalf("Fill on empty bucket: err = %v, want *RateLimitError", err)
	}
	if rl.RetryAfter <= 0 || rl.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want (0s, 1s] for a 1-word deficit at 8 words/s", rl.RetryAfter)
	}
	if dst[0] != 0 {
		t.Fatalf("rate-limited Fill left stale word %x", dst[0])
	}

	// Time refills the bucket at 8 words/s.
	now = now.Add(time.Second)
	drawWords(t, r, "t", 8)

	// Bytes draws charge by the word, partial words rounded up.
	now = now.Add(time.Second)
	b := make([]byte, 9) // 2 words
	if err := r.FillBytes("t", b); err != nil {
		t.Fatal(err)
	}
	if err := r.FillBytes("t", make([]byte, 8*8)); !errors.As(err, &rl) {
		t.Fatalf("FillBytes over budget: err = %v, want *RateLimitError", err)
	}

	s := r.Stats()
	if len(s.PerTenant) != 1 {
		t.Fatalf("tenants = %d, want 1", len(s.PerTenant))
	}
	ts := s.PerTenant[0]
	if ts.Sheds != 2 {
		t.Fatalf("sheds = %d, want 2", ts.Sheds)
	}
	if ts.Draws != 24 || ts.Bytes != 9 {
		t.Fatalf("meters = %d words / %d bytes, want 24 / 9", ts.Draws, ts.Bytes)
	}

	// The rate limit only shed the draws, it did not advance the
	// stream: 24 u64-words plus 2 byte-words have been consumed, so
	// the next draw serves words 26 and 27 of the derived stream.
	want := control(t, 5, "t", 28)
	got := drawWords(t, r, "t", 2)
	if !equalWords(got, want[26:]) {
		t.Fatalf("shed draws perturbed the stream: got %x want %x", got, want[26:])
	}
}

func TestRateLimitIsPerTenant(t *testing.T) {
	now := time.Unix(2000, 0)
	r := mustRegistry(t, Config{
		RootSeed:   5,
		RatePerSec: 4,
		Burst:      4,
		Now:        func() time.Time { return now },
	})
	drawWords(t, r, "hog", 4)
	if err := r.Fill("hog", make([]uint64, 1)); err == nil {
		t.Fatal("hog's bucket should be empty")
	}
	// A different tenant still has its full burst.
	drawWords(t, r, "quiet", 4)
}

// TestBucketSurvivesEvictionAndRestore: parking a tenant and restoring
// a registry leave its token bucket where it was. A throttled tenant
// stays throttled at the same instant, and then refills at the
// configured rate from that instant, not to a full burst.
func TestBucketSurvivesEvictionAndRestore(t *testing.T) {
	now := time.Unix(3000, 0)
	cfg := Config{
		RootSeed:    5,
		RatePerSec:  1,
		Burst:       10,
		MaxResident: 1,
		Now:         func() time.Time { return now },
	}
	requireThrottled := func(r *Registry, when string) {
		t.Helper()
		var rl *RateLimitError
		if err := r.Fill("a", make([]uint64, 1)); !errors.As(err, &rl) {
			t.Fatalf("%s: Fill = %v, want a *RateLimitError", when, err)
		}
	}
	r := mustRegistry(t, cfg)
	drawWords(t, r, "a", 10)
	requireThrottled(r, "burst spent")
	drawWords(t, r, "b", 1) // parks a: one resident slot
	if s := r.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	requireThrottled(r, "unparked")

	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireThrottled(r2, "restored")
	now = now.Add(time.Second) // one word's refill
	drawWords(t, r2, "a", 1)
	requireThrottled(r2, "restored, one second on")

	// A node with a smaller burst restores b's 9 words as 4.
	cfg.Burst = 4
	if r2, err = Restore(data, cfg); err != nil {
		t.Fatal(err)
	}
	var rl *RateLimitError
	if err := r2.Fill("b", make([]uint64, 5)); !errors.As(err, &rl) {
		t.Fatalf("5 words over a burst of 4: Fill = %v, want a *RateLimitError", err)
	}
	drawWords(t, r2, "b", 4)
}

func TestCollisionAudit(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 11})
	drawWords(t, r, "first", 1)
	// Force the audit to see a collision by planting first's derived
	// seed under a different owner.
	r.mu.Lock()
	r.seeds[DeriveSeed(11, "second")] = "first"
	r.mu.Unlock()
	dst := []uint64{1, 2}
	err := r.Fill("second", dst)
	var ce *CollisionError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CollisionError", err)
	}
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("collision error left stale words %x", dst)
	}
}

// TestKeyedDrawConcurrencyStress hammers a small LRU from many
// goroutines — constant eviction/unpark churn — and then verifies
// every key's stream position is exactly the number of words it
// served: concurrency and eviction may reorder tenants, never
// streams.
func TestKeyedDrawConcurrencyStress(t *testing.T) {
	const (
		workers      = 8
		drawsPerG    = 60
		wordsPerDraw = 5
		nKeys        = 6
	)
	r := mustRegistry(t, Config{RootSeed: 31337, MaxResident: 2})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]uint64, wordsPerDraw)
			for i := 0; i < drawsPerG; i++ {
				key := fmt.Sprintf("user-%04d", (w+i)%nKeys)
				if err := r.Fill(key, buf); err != nil {
					t.Errorf("Fill(%q): %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := r.Stats()
	var total uint64
	for _, ts := range s.PerTenant {
		total += ts.Draws
		want := control(t, 31337, ts.Key, int(ts.Draws)+wordsPerDraw)
		got := drawWords(t, r, ts.Key, wordsPerDraw)
		if !equalWords(got, want[ts.Draws:]) {
			t.Fatalf("key %q stream out of position after stress", ts.Key)
		}
	}
	if want := uint64(workers * drawsPerG * wordsPerDraw); total != want {
		t.Fatalf("metered words = %d, want %d", total, want)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	build := func() []byte {
		r := mustRegistry(t, Config{RootSeed: 8, MaxResident: 2})
		for _, k := range []string{"c", "a", "b"} {
			drawWords(t, r, k, 3)
		}
		blob, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical histories marshalled to different blobs")
	}
}

// withTenantMonitor returns a copy of reg, a registry blob, whose
// last tenant's SP 800-90B monitor state is replaced by edit(state).
// That tenant's generator blob is reg's last length-prefixed field,
// ahead of its four u64 meters, and the monitor state is the
// generator blob's last u16-length-prefixed field.
func withTenantMonitor(t *testing.T, reg []byte, edit func(mon []byte) []byte) []byte {
	t.Helper()
	const meters, monLen = 32, 30 // an untripped monitor's state is 30 bytes
	start, end := bytes.LastIndex(reg, []byte("hprng")), len(reg)-meters
	if start < 4 || int(binary.LittleEndian.Uint32(reg[start-4:])) != end-start ||
		binary.LittleEndian.Uint16(reg[end-monLen-2:]) != monLen {
		t.Fatal("registry blob does not end with an untripped monitored tenant")
	}
	gen := blob.AppendBytes16(bytes.Clone(reg[start:end-monLen-2]), edit(bytes.Clone(reg[end-monLen:end])))
	return append(blob.AppendBytes32(bytes.Clone(reg[:start-4]), gen), reg[end:]...)
}

// tripMonitor sets an untripped monitor state's trip flag, its last
// byte, and appends the failure record a tripped monitor carries.
func tripMonitor(mon []byte) []byte {
	mon[len(mon)-1] = 1
	return blob.AppendBytes16(blob.AppendBytes16(mon, "forced"), "tripped by test")
}

// requireRefused asserts that both draw kinds on key fail with the
// tenant's HealthError and zero their buffers.
func requireRefused(t *testing.T, r *Registry, key, when string) {
	t.Helper()
	var he *bitsource.HealthError
	words := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := r.Fill(key, words); !errors.As(err, &he) || !equalWords(words, make([]uint64, len(words))) {
		t.Fatalf("%s: Fill = %v with words %x, want a HealthError and zeroed words", when, err, words)
	}
	b := bytes.Repeat([]byte{0xee}, 64)
	if err := r.FillBytes(key, b); !errors.As(err, &he) || !bytes.Equal(b, make([]byte, len(b))) {
		t.Fatalf("%s: FillBytes = %v with bytes %x, want a HealthError and zeroed bytes", when, err, b)
	}
}

// TestTrippedTenantIsRefused: a tenant whose health monitor has
// tripped serves nothing more and is not metered for the refused
// draws. The refusal outlives eviction and a checkpoint round trip,
// because the trip flag travels in the tenant's generator blob.
func TestTrippedTenantIsRefused(t *testing.T) {
	src := mustRegistry(t, Config{RootSeed: 7, HealthHMin: 4})
	drawWords(t, src, "alice", 4)
	reg, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(withTenantMonitor(t, reg, tripMonitor), Config{MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	requireRefused(t, r, "alice", "restored")

	drawWords(t, r, "bob", 1) // parks alice: one resident slot
	if s := r.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	requireRefused(t, r, "alice", "unparked")

	reg2, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if r, err = Restore(reg2, Config{}); err != nil {
		t.Fatal(err)
	}
	requireRefused(t, r, "alice", "round-tripped")
	drawWords(t, r, "bob", 1) // other tenants keep serving
	for _, ts := range r.Stats().PerTenant {
		if ts.Key == "alice" && (ts.Draws != 4 || ts.Bytes != 0) {
			t.Fatalf("refused draws were metered: %+v", ts)
		}
	}
}

// TestTenantTrippingMidDrawIsRefused: a monitor that trips during a
// draw fails that draw too. The restored monitor's APT cutoff is 2, so
// the first byte in a window equal to the window's sample trips it.
func TestTenantTrippingMidDrawIsRefused(t *testing.T) {
	src := mustRegistry(t, Config{RootSeed: 7, HealthHMin: 4})
	drawWords(t, src, "alice", 4)
	reg, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(withTenantMonitor(t, reg, func(mon []byte) []byte {
		binary.LittleEndian.PutUint32(mon[10:], 2) // APT cutoff
		return mon
	}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, 256)
	var he *bitsource.HealthError
	if err := r.Fill("alice", words); !errors.As(err, &he) || he.Test != "adaptive-proportion" ||
		!equalWords(words, make([]uint64, len(words))) {
		t.Fatalf("Fill = %v, want an adaptive-proportion HealthError and zeroed words", err)
	}
	requireRefused(t, r, "alice", "after the trip")
	if ts := r.Stats().PerTenant[0]; ts.Draws != 4 {
		t.Fatalf("draws = %d, want the 4 served before the trip", ts.Draws)
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
