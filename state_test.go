package hybridprng

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blob"
)

func TestCheckpointResumesExactStream(t *testing.T) {
	for _, feed := range []string{FeedGlibc, FeedANSIC, FeedSplitMix} {
		g, err := New(WithSeed(99), WithFeed(feed))
		if err != nil {
			t.Fatal(err)
		}
		// Advance into the stream — including a partial bit-buffer
		// position.
		for i := 0; i < 137; i++ {
			g.Uint64()
		}
		blob, err := g.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", feed, err)
		}
		restored := new(Generator)
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", feed, err)
		}
		if restored.Generated() != g.Generated() {
			t.Errorf("%s: generated %d, want %d", feed, restored.Generated(), g.Generated())
		}
		for i := 0; i < 500; i++ {
			if a, b := g.Uint64(), restored.Uint64(); a != b {
				t.Fatalf("%s: streams diverge at +%d: %x vs %x", feed, i, a, b)
			}
		}
	}
}

func TestCheckpointPreservesOptions(t *testing.T) {
	g, _ := New(WithSeed(5), WithWalkLength(17), WithInitWalkLength(3))
	g.Uint64()
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Generator)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if g.Uint64() != r.Uint64() {
			t.Fatal("non-default walk length not preserved")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	r := new(Generator)
	if err := r.UnmarshalBinary(nil); err == nil {
		t.Error("nil blob should fail")
	}
	if err := r.UnmarshalBinary([]byte("not a state blob at all......")); err == nil {
		t.Error("bad magic should fail")
	}
	g, _ := New(WithSeed(1))
	blob, _ := g.MarshalBinary()
	// Corrupt the version.
	bad := append([]byte(nil), blob...)
	bad[len(stateMagic)] = 99
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Error("bad version should fail")
	}
	// Corrupt the feed tag.
	bad = append([]byte(nil), blob...)
	bad[len(stateMagic)+1] = 99
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Error("bad feed tag should fail")
	}
	// Truncate.
	if err := r.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob should fail")
	}
}

func TestCheckpointMonitoredGenerator(t *testing.T) {
	g, err := New(WithSeed(321), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 97; i++ {
		g.Uint64()
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatalf("monitored generator no longer checkpointable: %v", err)
	}
	r := new(Generator)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if monitor(r.w) == nil {
		t.Fatal("restored generator lost its monitor")
	}
	if got, want := monitor(r.w).RCTCutoff(), monitor(g.w).RCTCutoff(); got != want {
		t.Errorf("restored RCT cutoff %d, want %d", got, want)
	}
	if got, want := monitor(r.w).APTCutoff(), monitor(g.w).APTCutoff(); got != want {
		t.Errorf("restored APT cutoff %d, want %d", got, want)
	}
	if r.HealthErr() != nil {
		t.Errorf("restored healthy generator reports %v", r.HealthErr())
	}
	for i := 0; i < 300; i++ {
		if g.Uint64() != r.Uint64() {
			t.Fatalf("monitored streams diverge at +%d", i)
		}
	}
}

func TestCheckpointTrippedGeneratorStaysTripped(t *testing.T) {
	g, err := New(WithSeed(77), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	g.Uint64()
	monitor(g.w).ForceTrip("drill")
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Generator)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	err = r.HealthErr()
	if err == nil {
		t.Fatal("restored generator forgot its tripped monitor")
	}
	if want := g.HealthErr().Error(); err.Error() != want {
		t.Errorf("restored failure %q, want %q", err, want)
	}
}

func TestCheckpointV1BlobStillRestores(t *testing.T) {
	// Hand-build a v1 blob (no monitor section) from a current one:
	// flip the version byte and drop the trailing monLen field.
	g, err := New(WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		g.Uint64()
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), blob[:len(blob)-2]...) // unmonitored v2 ends with monLen=0
	v1[len(stateMagic)] = 1
	r := new(Generator)
	if err := r.UnmarshalBinary(v1); err != nil {
		t.Fatalf("v1 blob rejected: %v", err)
	}
	for i := 0; i < 50; i++ {
		if g.Uint64() != r.Uint64() {
			t.Fatal("v1 restore diverged")
		}
	}
}

func TestParallelCheckpointRoundTrip(t *testing.T) {
	p, err := NewParallel(3, WithSeed(55), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]uint64, 1000)
	p.Fill(warm)
	p.Worker(1).Uint64() // leave worker 1 mid-stream relative to the others
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Parallel)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if r.Workers() != p.Workers() {
		t.Fatalf("restored %d workers, want %d", r.Workers(), p.Workers())
	}
	for i := 0; i < p.Workers(); i++ {
		if monitor(r.walkers[i]) == nil {
			t.Fatalf("worker %d lost its monitor", i)
		}
		a, b := p.Worker(i), r.Worker(i)
		if a.Generated() != b.Generated() {
			t.Fatalf("worker %d generated %d, want %d", i, b.Generated(), a.Generated())
		}
		for j := 0; j < 200; j++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("worker %d diverged at +%d", i, j)
			}
		}
	}
	// The batch path must agree too.
	got := make([]uint64, 777)
	want := make([]uint64, 777)
	p.Fill(want)
	r.Fill(got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored Fill diverged at %d", i)
		}
	}
}

func TestParallelWorkerCarriesMonitor(t *testing.T) {
	p, err := NewParallel(3, WithSeed(5), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	// Worker(i) used to build a Generator with a nil health field, so
	// per-worker HealthErr was always nil even with monitoring on.
	monitor(p.walkers[1]).ForceTrip("drill")
	if p.Worker(1).HealthErr() == nil {
		t.Error("worker 1's generator does not see its tripped monitor")
	}
	if p.Worker(0).HealthErr() != nil {
		t.Error("worker 0 sees worker 1's trip")
	}
	if p.HealthErr() == nil {
		t.Error("pool-level HealthErr missed the trip")
	}
}

func TestPoolCheckpointRoundTrip(t *testing.T) {
	p, err := NewPool(WithSeed(888), WithShards(4), WithShardBuffer(32), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	// Drain an odd number of words so rings hold residue and the
	// ticket counter sits mid-rotation.
	for i := 0; i < 501; i++ {
		if _, err := p.Uint64(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Pool)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if r.Shards() != p.Shards() {
		t.Fatalf("restored %d shards, want %d", r.Shards(), p.Shards())
	}
	if got, want := r.tickets.Load(), p.tickets.Load(); got != want {
		t.Fatalf("restored ticket %d, want %d", got, want)
	}
	// Identical call pattern ⇒ identical output: residue, tickets,
	// walker positions and monitors all restored.
	for i := 0; i < 2000; i++ {
		a, errA := p.Uint64()
		b, errB := r.Uint64()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a != b {
			t.Fatalf("pool streams diverge at +%d", i)
		}
	}
	bufA := make([]uint64, 3000)
	bufB := make([]uint64, 3000)
	if err := p.Fill(bufA); err != nil {
		t.Fatal(err)
	}
	if err := r.Fill(bufB); err != nil {
		t.Fatal(err)
	}
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatalf("pool Fill diverged at %d", i)
		}
	}
	st := r.Stats()
	if st.Draws == 0 || st.Refills == 0 {
		t.Errorf("restored pool lost its serving counters: %+v", st)
	}
}

func TestPoolCheckpointTrippedShardStaysRetired(t *testing.T) {
	p, err := NewPool(WithSeed(31), WithShards(4), WithShardBuffer(16), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p.Uint64()
	}
	if err := p.InjectFault(2); err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Pool)
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if !st.PerShard[2].Tripped {
		t.Fatal("restored shard 2 came back from the dead")
	}
	if st.PerShard[2].Failure == "" {
		t.Error("restored tripped shard lost its failure reason")
	}
	if st.Healthy != 3 {
		t.Errorf("restored pool healthy = %d, want 3", st.Healthy)
	}
	if r.HealthErr() == nil {
		t.Error("restored pool HealthErr is nil despite a tripped shard")
	}
	// The healthy shards keep serving the same streams.
	for i := 0; i < 500; i++ {
		a, errA := p.Uint64()
		b, errB := r.Uint64()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a != b {
			t.Fatalf("degraded pool streams diverge at +%d", i)
		}
	}
}

func TestPoolUnmarshalRejectsGarbage(t *testing.T) {
	p, err := NewPool(WithSeed(1), WithShards(2), WithShardBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := new(Pool)
	if err := r.UnmarshalBinary(nil); err == nil {
		t.Error("nil pool blob should fail")
	}
	if err := r.UnmarshalBinary([]byte("definitely not a pool state blob")); err == nil {
		t.Error("bad pool magic should fail")
	}
	if err := r.UnmarshalBinary(blob[:len(blob)-5]); err == nil {
		t.Error("truncated pool blob should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[len(poolMagic)] = 99
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Error("bad pool version should fail")
	}
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	f := func(seed uint64, drawsRaw uint16) bool {
		draws := int(drawsRaw) % 200
		g, err := New(WithSeed(seed))
		if err != nil {
			return false
		}
		for i := 0; i < draws; i++ {
			g.Uint64()
		}
		blob, err := g.MarshalBinary()
		if err != nil {
			return false
		}
		r := new(Generator)
		if err := r.UnmarshalBinary(blob); err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			if g.Uint64() != r.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLengthDecodersRejectHugeLengths feeds the u32 length fields a
// value at or above 2^31. Converted with int() on a 32-bit host such a
// length turns negative, passes a signed bounds check and panics when
// slicing; every decoder must report truncation instead (GOARCH=386
// runs this test natively on an x86-64 host). The length-prefixed
// reads themselves are covered by internal/blob's tests.
func TestLengthDecodersRejectHugeLengths(t *testing.T) {
	huge := []byte{0xF0, 0xFF, 0xFF, 0xFF}
	g, err := New(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	wBlob, err := marshalWalker(g.w)
	if err != nil {
		t.Fatal(err)
	}
	shard := append(blob.AppendBytes32(nil, wBlob), huge...)
	shard = append(shard, make([]byte, 64)...)
	if _, err := unmarshalShard(shard, 16, poolVersion, time.Now()); err == nil {
		t.Error("unmarshalShard accepted a ring residue of 0xFFFFFFF0 words")
	}
	par := append([]byte(parMagic), parVersion, 1, 0, 0, 0)
	par = append(append(par, huge...), 1, 2, 3)
	if err := new(Parallel).UnmarshalBinary(par); err == nil {
		t.Error("Parallel.UnmarshalBinary accepted a 0xFFFFFFF0-byte worker blob")
	}
}

// BenchmarkCheckpoint times one marshal plus one unmarshal of a
// monitored Generator and of a 16-shard monitored Pool, the blobs
// randd writes on every snapshot, drain and tenant eviction.
func BenchmarkCheckpoint(b *testing.B) {
	g, err := New(WithSeed(1), WithHealthMonitoring(4))
	if err != nil {
		b.Fatal(err)
	}
	g.Uint64()
	p, err := NewPool(WithSeed(1), WithShards(16), WithHealthMonitoring(4))
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Fill(make([]uint64, 5000)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		m     interface{ MarshalBinary() ([]byte, error) }
		fresh func() interface{ UnmarshalBinary([]byte) error }
	}{
		{"generator-monitored", g, func() interface{ UnmarshalBinary([]byte) error } { return new(Generator) }},
		{"pool-16", p, func() interface{ UnmarshalBinary([]byte) error } { return new(Pool) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := c.m.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				if err := c.fresh().UnmarshalBinary(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
