package hybridprng

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestPoolShardRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {1000, 1024},
	} {
		p, err := NewPool(WithSeed(1), WithShards(tc.ask))
		if err != nil {
			t.Fatal(err)
		}
		if p.Shards() != tc.want {
			t.Errorf("WithShards(%d): %d shards, want %d", tc.ask, p.Shards(), tc.want)
		}
	}
}

// TestPoolDefaultShards pins the default shard count, the next power
// of two ≥ max(GOMAXPROCS, MaxBatchLanes), and what follows from it: a
// seeded default pool serves exactly the stream of a pool built with
// that count spelled out, so below sixteen cores the default stream is
// the WithShards(16) stream whatever GOMAXPROCS is.
func TestPoolDefaultShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, want int }{
		{1, 16}, {2, 16}, {3, 16}, {17, 32},
	} {
		runtime.GOMAXPROCS(tc.procs)
		opts := []Option{WithSeed(14), WithHealthMonitoring(4)}
		def, err := NewPool(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if def.Shards() != tc.want {
			t.Errorf("GOMAXPROCS %d: %d default shards, want %d", tc.procs, def.Shards(), tc.want)
			continue
		}
		twin, err := NewPool(append(opts, WithShards(tc.want))...)
		if err != nil {
			t.Fatal(err)
		}
		// A bulk chunk (the striped direct path), a ring-sized draw and
		// a ragged tail, twice over.
		for _, n := range []int{64 << 10, 40, 64<<10 + 3, 40} {
			got, want := make([]byte, n), make([]byte, n)
			if err := def.FillBytes(got); err != nil {
				t.Fatal(err)
			}
			if err := twin.FillBytes(want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GOMAXPROCS %d: default pool's %d bytes differ from WithShards(%d)'s", tc.procs, n, tc.want)
			}
		}
	}
}

func TestPoolOptionValidation(t *testing.T) {
	if _, err := NewPool(WithShards(0)); err == nil {
		t.Error("WithShards(0) must fail")
	}
	if _, err := NewPool(WithShards(maxShards + 1)); err == nil {
		t.Error("WithShards over the cap must fail")
	}
	if _, err := NewPool(WithShardBuffer(0)); err == nil {
		t.Error("WithShardBuffer(0) must fail")
	}
	if _, err := NewPool(WithShardBuffer(maxShardBuffer + 1)); err == nil {
		t.Error("WithShardBuffer over the cap must fail")
	}
}

func TestPoolFillMatchesGeneratorStream(t *testing.T) {
	// A fresh 1-shard pool's direct Fill path must reproduce the
	// underlying generator's stream exactly (the ring is untouched
	// until the first Uint64).
	p, err := NewPool(WithSeed(7), WithShards(1), WithShardBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 300)
	g.Fill(want)
	got := make([]uint64, 300)
	if err := p.Fill(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pool Fill diverged at %d: %#x != %#x", i, got[i], want[i])
		}
	}
}

func TestPoolReproducibleCallPattern(t *testing.T) {
	// Ring-buffered Uint64 and direct Fill interleave a shard's
	// stream in buffer order, not draw order — but the same seed and
	// the same call pattern must reproduce the same outputs.
	run := func() []uint64 {
		p, err := NewPool(WithSeed(13), WithShards(2), WithShardBuffer(8))
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		batch := make([]uint64, 100)
		for round := 0; round < 3; round++ {
			for i := 0; i < 5; i++ {
				v, err := p.Uint64()
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
			if err := p.Fill(batch); err != nil {
				t.Fatal(err)
			}
			out = append(out, batch...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed + same call pattern diverged at %d", i)
		}
	}
}

func TestPoolStats(t *testing.T) {
	p, err := NewPool(WithSeed(3), WithShards(4), WithShardBuffer(32))
	if err != nil {
		t.Fatal(err)
	}
	const draws = 1000
	for i := 0; i < draws; i++ {
		if _, err := p.Uint64(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Shards != 4 || st.Healthy != 4 || st.HealthTrips != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Draws != draws {
		t.Errorf("Draws = %d, want %d", st.Draws, draws)
	}
	if st.BufferWords != 32 {
		t.Errorf("BufferWords = %d, want 32", st.BufferWords)
	}
	if g := p.Generated(); g < draws {
		t.Errorf("Generated = %d < draws %d", g, draws)
	}
	var buffered uint64
	for _, ss := range st.PerShard {
		buffered += uint64(ss.Buffered)
	}
	// Everything generated is either served or still buffered.
	if p.Generated() != st.Draws+buffered {
		t.Errorf("Generated %d != served %d + buffered %d", p.Generated(), st.Draws, buffered)
	}
}

func TestPoolFaultInjection(t *testing.T) {
	p, err := NewPool(WithSeed(5), WithShards(4), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.HealthErr(); err != nil {
		t.Fatalf("fresh pool unhealthy: %v", err)
	}
	if err := p.InjectFault(2); err != nil {
		t.Fatal(err)
	}
	if p.HealthErr() == nil {
		t.Fatal("HealthErr nil after fault injection")
	}
	st := p.Stats()
	if st.Healthy != 3 || st.HealthTrips != 1 {
		t.Fatalf("stats after one fault: %+v", st)
	}
	if !st.PerShard[2].Tripped || st.PerShard[2].Failure == "" {
		t.Fatalf("shard 2 not reported tripped: %+v", st.PerShard[2])
	}
	// Degraded pool keeps serving from the healthy shards.
	for i := 0; i < 100; i++ {
		if _, err := p.Uint64(); err != nil {
			t.Fatalf("degraded pool draw %d: %v", i, err)
		}
	}
	if err := p.Fill(make([]uint64, 5000)); err != nil {
		t.Fatalf("degraded pool fill: %v", err)
	}
	// Trip the rest: draws must fail with ErrPoolUnhealthy.
	for i := 0; i < p.Shards(); i++ {
		if err := p.InjectFault(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Uint64(); !errors.Is(err, ErrPoolUnhealthy) {
		t.Fatalf("fully tripped pool: Uint64 err = %v", err)
	}
	if err := p.Fill(make([]uint64, 10)); !errors.Is(err, ErrPoolUnhealthy) {
		t.Fatalf("fully tripped pool: Fill err = %v", err)
	}
	if err := p.InjectFault(99); err == nil {
		t.Error("InjectFault out of range must error")
	}
}

func TestPoolFaultInjectionWithoutMonitoring(t *testing.T) {
	p, err := NewPool(WithSeed(5), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if p.HealthErr() == nil {
		t.Fatal("forced trip must surface without a monitor")
	}
	if _, err := p.Uint64(); err != nil {
		t.Fatalf("one healthy shard left, draw failed: %v", err)
	}
}

func TestPoolRead(t *testing.T) {
	p, err := NewPool(WithSeed(9), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1000) // not a multiple of 8
	n, err := p.Read(b)
	if err != nil || n != len(b) {
		t.Fatalf("Read = %d, %v", n, err)
	}
	var zero int
	for _, c := range b {
		if c == 0 {
			zero++
		}
	}
	if zero > len(b)/8 {
		t.Errorf("suspiciously many zero bytes: %d/%d", zero, len(b))
	}
}
