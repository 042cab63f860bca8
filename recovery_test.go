package hybridprng

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// fakeClock is a manually advanced time source shared by a pool and
// its test, making quarantine backoffs deterministic and instant.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// fastRecovery is a policy small enough that one Fill sweep finishes
// probation.
func fastRecovery() RecoveryPolicy {
	return RecoveryPolicy{
		QuarantineBase: 50 * time.Millisecond,
		ProbationWords: 256,
		MaxTrips:       4,
	}
}

// drive pumps draws until the pool reports want healthy shards (or
// the step budget runs out).
func drive(t *testing.T, p *Pool, want int) {
	t.Helper()
	dst := make([]uint64, 16)
	for i := 0; i < 100; i++ {
		_ = p.Fill(dst) // unhealthy mid-recovery is fine; the sweep still ran
		if p.Stats().Healthy >= want {
			return
		}
	}
	t.Fatalf("pool never reached %d healthy shards: %+v", want, p.Stats())
}

// TestChaosShardTripProbationReadmit walks one shard through the
// whole state machine: healthy → quarantined → probation → healthy —
// and requires it to serve again afterwards.
func TestChaosShardTripProbationReadmit(t *testing.T) {
	clock := newFakeClock()
	p, err := NewPool(WithSeed(1), WithShards(2), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(fastRecovery()), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Quarantined != 1 || st.Healthy != 1 {
		t.Fatalf("after trip: %+v", st)
	}
	if st.PerShard[0].State != "quarantined" || st.PerShard[0].RetryIn <= 0 {
		t.Fatalf("shard 0 after trip: %+v", st.PerShard[0])
	}
	// Degraded, not down: draws still work.
	if _, err := p.Uint64(); err != nil {
		t.Fatalf("degraded pool must serve: %v", err)
	}
	// Backoff not yet elapsed: no recovery however hard we draw.
	drive(t, p, 1)
	if st = p.Stats(); st.Quarantined != 1 {
		t.Fatalf("recovered before deadline: %+v", st)
	}
	clock.Advance(time.Second)
	drive(t, p, 2)
	st = p.Stats()
	if st.Healthy != 2 || st.Recoveries != 1 || st.HealthTrips != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if ss := st.PerShard[0]; ss.State != "healthy" || ss.Trips != 1 || ss.Failure != "" {
		t.Fatalf("shard 0 after recovery: %+v", ss)
	}
	if err := p.Fill(make([]uint64, 1024)); err != nil {
		t.Fatalf("recovered pool: %v", err)
	}
	if p.HealthErr() != nil {
		t.Fatalf("recovered pool still reports %v", p.HealthErr())
	}
}

// TestChaosBackoffGrowsThenRetires: each further trip must quarantine
// longer, and the MaxTrips-th trip retires the shard permanently.
func TestChaosBackoffGrowsThenRetires(t *testing.T) {
	clock := newFakeClock()
	pol := fastRecovery()
	pol.MaxTrips = 3
	p, err := NewPool(WithSeed(2), WithShards(2), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(pol), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	var lastRetry time.Duration
	for trip := 1; trip < pol.MaxTrips; trip++ {
		if err := p.InjectFault(0); err != nil {
			t.Fatal(err)
		}
		ss := p.Stats().PerShard[0]
		if ss.State != "quarantined" {
			t.Fatalf("trip %d: state %s", trip, ss.State)
		}
		if ss.RetryIn <= lastRetry {
			t.Fatalf("trip %d: backoff %v did not grow past %v", trip, ss.RetryIn, lastRetry)
		}
		lastRetry = ss.RetryIn
		clock.Advance(10 * time.Minute)
		drive(t, p, 2)
	}
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Retired != 1 || st.PerShard[0].State != "retired" {
		t.Fatalf("after trip budget spent: %+v", st)
	}
	clock.Advance(time.Hour)
	drive(t, p, 1)
	if st = p.Stats(); st.PerShard[0].State != "retired" {
		t.Fatalf("retired shard resurrected: %+v", st)
	}
}

// TestChaosAllShardsTripThenRecover: a fully tripped pool returns
// ErrPoolUnhealthy, then heals itself once backoffs elapse — no
// restart required.
func TestChaosAllShardsTripThenRecover(t *testing.T) {
	clock := newFakeClock()
	p, err := NewPool(WithSeed(3), WithShards(4), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(fastRecovery()), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Shards(); i++ {
		if err := p.InjectFault(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Uint64(); !errors.Is(err, ErrPoolUnhealthy) {
		t.Fatalf("fully tripped pool: %v, want ErrPoolUnhealthy", err)
	}
	if err := p.Fill(make([]uint64, 100)); !errors.Is(err, ErrPoolUnhealthy) {
		t.Fatalf("fully tripped pool Fill: %v", err)
	}
	clock.Advance(time.Second)
	drive(t, p, 4)
	st := p.Stats()
	if st.Healthy != 4 || st.Recoveries != 4 {
		t.Fatalf("after recovery: %+v", st)
	}
	if _, err := p.Uint64(); err != nil {
		t.Fatalf("healed pool: %v", err)
	}
}

// TestChaosDisabledPolicyRetiresImmediately pins the legacy
// retire-on-first-trip behaviour, now MaxTrips: 1. A v3 pool blob
// written with the old RecoveryPolicy.Disabled flag byte set must
// restore to the same behaviour.
func TestChaosDisabledPolicyRetiresImmediately(t *testing.T) {
	p, err := NewPool(WithSeed(4), WithShards(2), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(RecoveryPolicy{MaxTrips: 1}))
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := NewPool(WithSeed(4), WithShards(2), WithShardBuffer(8), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := flagged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[len(poolMagic)+1+4+4+8] = 1 // the v3 flag byte, after the pool header
	restored := new(Pool)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Pool{"MaxTrips 1": p, "flagged v3 blob": restored} {
		if err := p.InjectFault(1); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Retired != 1 || st.PerShard[1].State != "retired" {
			t.Fatalf("%s: disabled recovery: %+v", name, st)
		}
	}
}

// TestChaosFeedWrapperEndToEnd runs a pool whose feeds are corrupted
// by the chaos harness and requires the full loop — trip through the
// real SP 800-90B path, quarantine, reseed, probation, readmission —
// to happen on its own under draw traffic.
func TestChaosFeedWrapperEndToEnd(t *testing.T) {
	clock := newFakeClock()
	p, err := NewPool(WithSeed(5), WithShards(2), WithShardBuffer(64),
		WithHealthMonitoring(1),
		WithRecovery(fastRecovery()),
		WithClock(clock.Now),
		WithFeedWrapper(chaos.Wrapper(chaos.Config{
			Seed:       6,
			MeanPeriod: 2048,
			MeanLen:    256,
			Kinds:      []chaos.Kind{chaos.Stuck},
		})))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 256)
	deadline := 20_000
	var st PoolStats
	for i := 0; i < deadline; i++ {
		_ = p.Fill(dst)
		clock.Advance(5 * time.Millisecond)
		if st = p.Stats(); st.HealthTrips > 0 && st.Recoveries > 0 {
			break
		}
	}
	if st.HealthTrips == 0 || st.Recoveries == 0 {
		t.Fatalf("chaos feed never drove a full trip/recovery cycle: %+v", st)
	}
	// Chaos-wrapped feeds must refuse to checkpoint.
	if _, err := p.MarshalBinary(); err == nil {
		t.Fatal("chaos-wrapped pool marshalled; fault schedules must not enter snapshots")
	}
}

// TestChaosResumeMidQuarantine is the acceptance bit: a snapshot
// taken while a shard is quarantined must restore and then recover
// along the identical timeline, serving the identical stream.
func TestChaosResumeMidQuarantine(t *testing.T) {
	clockA := newFakeClock()
	t0 := clockA.Now()
	a, err := NewPool(WithSeed(6), WithShards(2), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(fastRecovery()), WithClock(clockA.Now))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 37; i++ {
		if _, err := a.Uint64(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// replay drives a pool through the same deterministic schedule:
	// draws while quarantined, clock jump, recovery, more draws.
	replay := func(p *Pool, clock *fakeClock) []uint64 {
		var out []uint64
		draw := func(n int) {
			for i := 0; i < n; i++ {
				v, err := p.Uint64()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
		fill := func(n int) {
			dst := make([]uint64, n)
			if err := p.Fill(dst); err != nil {
				t.Fatal(err)
			}
			out = append(out, dst...)
		}
		draw(11)
		clock.Set(t0.Add(time.Second)) // quarantine deadline passes
		fill(16)                       // sweep: reseed + probation
		fill(16)
		draw(40)
		fill(100)
		return out
	}

	outA := replay(a, clockA)
	if st := a.Stats(); st.Healthy != 2 || st.Recoveries != 1 {
		t.Fatalf("pool A never recovered during replay: %+v", st)
	}

	clockB := newFakeClock()
	clockB.Set(t0)
	b := new(Pool)
	b.SetClock(clockB.Now) // before UnmarshalBinary: deadlines re-anchor to this clock
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Quarantined != 1 {
		t.Fatalf("restored pool lost its quarantine state: %+v", st)
	}
	outB := replay(b, clockB)
	if len(outA) != len(outB) {
		t.Fatalf("replay lengths differ: %d vs %d", len(outA), len(outB))
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("streams diverge at word %d: %#x vs %#x", i, outA[i], outB[i])
		}
	}
	if st := b.Stats(); st.Healthy != 2 || st.Recoveries != 1 {
		t.Fatalf("restored pool never recovered: %+v", st)
	}
}

// TestRecoveryPolicyBounds: a policy takes no value its pool's snapshot
// decoder refuses. ProbationWords of 1<<22 let a snapshot taken during
// probation fail to restore ("shard probation balance ... out of
// range"), a QuarantineBase of 2000h one taken during quarantine
// ("shard backoff ... out of range"), and a NaN factor or jitter any
// snapshot ("pool policy carries NaN"). A policy at every bound
// round-trips a pool with one shard quarantined and one in probation,
// and WithRecovery refuses one past a bound.
func TestRecoveryPolicyBounds(t *testing.T) {
	for name, pol := range map[string]RecoveryPolicy{
		"quarantine base": {QuarantineBase: maxQuarantine + 1},
		"quarantine cap":  {QuarantineMax: maxQuarantine + 1},
		"probation words": {ProbationWords: maxProbationWords + 1},
		"NaN factor":      {BackoffFactor: math.NaN()},
		"NaN jitter":      {JitterFrac: math.NaN()},
	} {
		if _, err := NewPool(WithRecovery(pol)); err == nil {
			t.Errorf("%s past its bound accepted", name)
		}
	}
	clock := newFakeClock()
	at := RecoveryPolicy{QuarantineBase: maxQuarantine, QuarantineMax: maxQuarantine,
		JitterFrac: math.Nextafter(1, 0), ProbationWords: maxProbationWords}
	p, err := NewPool(WithSeed(4), WithShards(2), WithShardBuffer(8),
		WithHealthMonitoring(4), WithRecovery(at), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFault(1); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * maxQuarantine)
	_ = p.Fill(make([]uint64, 16)) // reseeds shard 1 into probation
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.PerShard[0].State != "quarantined" || st.PerShard[1].State != "probation" {
		t.Fatalf("shard states %q and %q, want quarantined and probation", st.PerShard[0].State, st.PerShard[1].State)
	}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q := new(Pool)
	q.SetClock(clock.Now)
	if err := q.UnmarshalBinary(data); err != nil {
		t.Fatalf("a policy at its bounds wrote a snapshot the pool refuses: %v", err)
	}
	if again, err := q.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("restored pool marshals differently (err %v)", err)
	}
}

// TestChaosConcurrentTripsAndRecovery hammers draws from many
// goroutines while shards trip and heal on a real (but fast) clock —
// run under -race, this is the state machine's memory-model test.
func TestChaosConcurrentTripsAndRecovery(t *testing.T) {
	pol := RecoveryPolicy{
		QuarantineBase: time.Millisecond,
		QuarantineMax:  4 * time.Millisecond,
		ProbationWords: 128,
		MaxTrips:       1 << 20, // never retire during the test
	}
	p, err := NewPool(WithSeed(7), WithShards(4), WithShardBuffer(32),
		WithHealthMonitoring(4), WithRecovery(pol))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var served atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]uint64, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					if _, err := p.Uint64(); err == nil {
						served.Add(1)
					}
				} else if err := p.Fill(dst); err == nil {
					served.Add(uint64(len(dst)))
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		_ = p.InjectFault(i % p.Shards())
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	st := p.Stats()
	if served.Load() == 0 {
		t.Fatal("no draws served while shards tripped and recovered")
	}
	if st.HealthTrips == 0 {
		t.Fatalf("no trips recorded: %+v", st)
	}
	// Let outstanding recoveries finish; the pool must heal fully.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Healthy != p.Shards() && time.Now().Before(deadline) {
		_ = p.Fill(make([]uint64, 16))
		time.Sleep(time.Millisecond)
	}
	if st = p.Stats(); st.Healthy != p.Shards() {
		t.Fatalf("pool did not heal after the storm: %+v", st)
	}
}

// TestPoolFillZeroesOnError pins the partial-write contract: a Fill
// that fails leaves dst fully zeroed, never holding stale or
// untrusted words.
func TestPoolFillZeroesOnError(t *testing.T) {
	p, err := NewPool(WithSeed(8), WithShards(2), WithShardBuffer(8), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Shards(); i++ {
		if err := p.InjectFault(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, directFillThreshold, directFillThreshold*4 + 3} {
		dst := make([]uint64, n)
		for i := range dst {
			dst[i] = 0xAAAAAAAAAAAAAAAA
		}
		if err := p.Fill(dst); !errors.Is(err, ErrPoolUnhealthy) {
			t.Fatalf("Fill(%d) on dead pool: %v", n, err)
		}
		for i, v := range dst {
			if v != 0 {
				t.Fatalf("Fill(%d): dst[%d] = %#x after error, want 0", n, i, v)
			}
		}
	}
}

// TestPoolReadZeroesTailOnError: the byte path's half of the same
// contract.
func TestPoolReadZeroesTailOnError(t *testing.T) {
	p, err := NewPool(WithSeed(9), WithShards(1), WithShardBuffer(8), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{0xAA}, 100)
	n, err := p.Read(b)
	if !errors.Is(err, ErrPoolUnhealthy) {
		t.Fatalf("Read on dead pool: n=%d err=%v", n, err)
	}
	for i := n; i < len(b); i++ {
		if b[i] != 0 {
			t.Fatalf("b[%d] = %#x after error, want 0", i, b[i])
		}
	}
}

// TestPoolZeroLengthCalls: zero-length draws are no-ops, healthy or
// not.
func TestPoolZeroLengthCalls(t *testing.T) {
	p, err := NewPool(WithSeed(10), WithShards(1), WithShardBuffer(8), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fill(nil); err != nil {
		t.Fatalf("Fill(nil): %v", err)
	}
	if n, err := p.Read(nil); n != 0 || err != nil {
		t.Fatalf("Read(nil): %d, %v", n, err)
	}
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Fill([]uint64{}); err != nil {
		t.Fatalf("Fill(empty) on dead pool: %v", err)
	}
	if n, err := p.Read([]byte{}); n != 0 || err != nil {
		t.Fatalf("Read(empty) on dead pool: %d, %v", n, err)
	}
}

// TestPoolReadOddSizes covers non-multiple-of-8 byte counts against
// the word stream.
func TestPoolReadOddSizes(t *testing.T) {
	for _, n := range []int{1, 3, 7, 9, 15, 17, 63, 65, 511, 513} {
		p, err := NewPool(WithSeed(11), WithShards(2), WithShardBuffer(8))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, n)
		got, err := p.Read(b)
		if err != nil || got != n {
			t.Fatalf("Read(%d): %d, %v", n, got, err)
		}
		// Words drawn must be ⌈n/8⌉ exactly.
		if want := uint64((n + 7) / 8); p.Stats().Draws != want {
			t.Fatalf("Read(%d) drew %d words, want %d", n, p.Stats().Draws, want)
		}
	}
}
