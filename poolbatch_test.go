package hybridprng

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestPoolGangRefillPreservesStreams pins the gang ring refill's core
// promise: topping up neighbouring rings early changes only when
// words are generated, never which words a caller observes. Each
// Uint64 draw must still return the next unserved word of the stream
// owned by the shard its ticket lands on.
func TestPoolGangRefillPreservesStreams(t *testing.T) {
	const shards, ring, draws = 8, 16, 2048
	p, err := NewPool(WithSeed(99), WithShards(shards), WithShardBuffer(ring))
	if err != nil {
		t.Fatal(err)
	}
	// Reference streams from a twin pool, read via the ring-bypassing
	// audit probe (ShardFill observes the same per-shard stream).
	ref, err := NewPool(WithSeed(99), WithShards(shards), WithShardBuffer(ring))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]uint64, shards)
	for i := range streams {
		streams[i] = make([]uint64, draws/shards+ring)
		if err := ref.ShardFill(i, streams[i]); err != nil {
			t.Fatal(err)
		}
	}
	served := make([]int, shards)
	for k := 0; k < draws; k++ {
		v, err := p.Uint64()
		if err != nil {
			t.Fatal(err)
		}
		// Single-goroutine draws visit shards in ticket order; all
		// shards healthy, so draw k lands on shard (k+1) & mask.
		s := (k + 1) & (shards - 1)
		if want := streams[s][served[s]]; v != want {
			t.Fatalf("draw %d (shard %d, word %d): %#x != %#x — gang refill changed a served stream",
				k, s, served[s], v, want)
		}
		served[s]++
	}
}

// TestPoolStatsInvariantUnderGangRefill re-pins Generated == Draws +
// buffered under traffic shaped to trigger gang top-ups constantly
// (tiny rings, many shards): every word a gang sweep generates must
// be accounted for in some ring.
func TestPoolStatsInvariantUnderGangRefill(t *testing.T) {
	p, err := NewPool(WithSeed(3), WithShards(16), WithShardBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]uint64, 777)
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			if _, err := p.Uint64(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Fill(batch); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	var buffered uint64
	for _, ss := range st.PerShard {
		buffered += uint64(ss.Buffered)
	}
	if g := p.Generated(); g != st.Draws+buffered {
		t.Fatalf("Generated %d != served %d + buffered %d", g, st.Draws, buffered)
	}
}

// TestPoolConcurrentBatchedRefills is the -race stress for the new
// locking: concurrent Uint64 traffic (gang refills TryLock-ing
// neighbours), bulk Fills (groups Lock-ing ascending), Reads and
// Stats snapshots all interleave on small rings.
func TestPoolConcurrentBatchedRefills(t *testing.T) {
	p, err := NewPool(WithSeed(42), WithShards(8), WithShardBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			big := make([]uint64, 1500)
			raw := make([]byte, 333)
			for i := 0; i < 40; i++ {
				switch (w + i) % 4 {
				case 0:
					if _, err := p.Uint64(); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := p.Fill(big); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := p.Read(raw); err != nil {
						t.Error(err)
						return
					}
				case 3:
					p.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	var buffered uint64
	for _, ss := range st.PerShard {
		buffered += uint64(ss.Buffered)
	}
	if g := p.Generated(); g != st.Draws+buffered {
		t.Fatalf("Generated %d != served %d + buffered %d after concurrent stress",
			g, st.Draws, buffered)
	}
}

// TestPoolFillBytesMatchesRead pins the zero-copy byte path to the
// portable encoding: a 1-shard pool serves one stream, so FillBytes
// and Read over the same stream must produce identical bytes for
// every alignment and tail shape.
func TestPoolFillBytesMatchesRead(t *testing.T) {
	for _, n := range []int{8, 16, 64, 513, 4096, 4099} {
		a, err := NewPool(WithSeed(11), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPool(WithSeed(11), WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		want := make([]byte, n)
		if err := a.FillBytes(got); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Read(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: FillBytes diverged from Read", n)
		}
	}
}

// TestPoolFillBytesUnalignedFallback drives the copying fallback with
// deliberately misaligned buffers. On one shard the byte stream must
// match Read; on multi-shard pools, past 4 KiB and with ragged tails,
// it must match an aligned FillBytes and a Read from twin pools — the
// bytes depend on len(b) and the pool state, never on alignment or on
// which of the two calls drew them.
func TestPoolFillBytesUnalignedFallback(t *testing.T) {
	a, _ := NewPool(WithSeed(17), WithShards(1))
	b, _ := NewPool(WithSeed(17), WithShards(1))
	backing := make([]byte, 121)
	got := backing[1:] // 8-byte-misaligned start
	want := make([]byte, len(got))
	if err := a.FillBytes(got); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("unaligned FillBytes diverged from Read")
	}

	for _, shards := range []int{2, 4, 16} {
		for _, n := range []int{4104, 65536, 65539} {
			a, err := NewPool(WithSeed(17), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewPool(WithSeed(17), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewPool(WithSeed(17), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			backing := make([]byte, n+1)
			got := backing[1:] // 8-byte-misaligned start
			want := make([]byte, n)
			read := make([]byte, n)
			if err := a.FillBytes(got); err != nil {
				t.Fatal(err)
			}
			if err := b.FillBytes(want); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read(read); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%d shards, n=%d: misaligned FillBytes diverged from the aligned one", shards, n)
			}
			if !bytes.Equal(read, want) {
				t.Errorf("%d shards, n=%d: Read diverged from FillBytes", shards, n)
			}
		}
	}

	// The fallback's scratch block is pooled, so repeated misaligned
	// fills stay allocation-free like the in-place path.
	p, _ := NewPool(WithSeed(17), WithShards(2))
	misaligned := make([]byte, 65537)[1:]
	if allocs := testing.AllocsPerRun(10, func() { p.FillBytes(misaligned) }); allocs >= 1 {
		t.Errorf("misaligned FillBytes allocates %.1f times per call", allocs)
	}
}

// TestPoolFillBytesZeroesOnError: a reused response buffer must never
// leak its previous contents through a failed fill — the whole buffer
// comes back zero, including the unaligned tail.
func TestPoolFillBytesZeroesOnError(t *testing.T) {
	p, err := NewPool(WithSeed(5), WithShards(2),
		WithRecovery(RecoveryPolicy{MaxTrips: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Shards(); i++ {
		if err := p.InjectFault(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{64, 67, 7} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 0xAA // stale "previous response"
		}
		if err := p.FillBytes(buf); err == nil {
			t.Fatal("FillBytes on a dead pool must fail")
		}
		for i, c := range buf {
			if c != 0 {
				t.Fatalf("n=%d byte %d = %#x after failed FillBytes, want 0", n, i, c)
			}
		}
	}
}

// BenchmarkPoolFillBytes measures the zero-copy byte path the server
// rides; the steady state must not allocate.
func BenchmarkPoolFillBytes(b *testing.B) {
	p, err := NewPool(WithSeed(1), WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8192)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.FillBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPoolStatsTakesNoShardLock pins that a Stats scrape never waits
// on a shard's lock: with one shard's mu held (as a long refill would
// hold it), Stats must still return — and report that shard's ring and
// quarantine state.
func TestPoolStatsTakesNoShardLock(t *testing.T) {
	p, err := NewPool(WithSeed(8), WithShards(4), WithShardBuffer(32), WithHealthMonitoring(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Uint64(); err != nil { // lands on shard 1 and fills its ring
		t.Fatal(err)
	}
	if err := p.InjectFault(2); err != nil {
		t.Fatal(err)
	}
	s := p.shards[1]
	s.mu.Lock()
	done := make(chan PoolStats, 1)
	go func() { done <- p.Stats() }()
	select {
	case st := <-done:
		s.mu.Unlock()
		if got := st.PerShard[1].Buffered; got != 31 {
			t.Errorf("shard 1 Buffered = %d, want 31", got)
		}
		if st.PerShard[2].State != "quarantined" || st.PerShard[2].RetryIn <= 0 {
			t.Errorf("shard 2 = %+v, want quarantined with a backoff left", st.PerShard[2])
		}
	case <-time.After(time.Second):
		s.mu.Unlock()
		<-done
		t.Fatal("Stats blocked on a held shard lock")
	}
}

// TestPoolStatsDoesNotChangeServedWords replays one seeded sequence of
// Fill calls — three quarters on the ring path (1–64 words), a quarter
// on the direct path (65–2,064 words) — against a sixteen-shard,
// health-on pool, alone and with a goroutine scraping Stats in a loop.
// The served words must not depend on the scrapes: a scrape that took
// shard locks made concurrent gang refills skip those shards, so later
// direct fills drew different words. Two-word rings make nearly every
// ring draw a gang refill, so a locking scrape collides with one in
// the first run.
func TestPoolStatsDoesNotChangeServedWords(t *testing.T) {
	const calls = 4000
	runs := 8
	if testing.Short() {
		runs = 3
	}
	serve := func(scrape bool) [32]byte {
		p, err := NewPool(WithSeed(21), WithShards(16), WithShardBuffer(2), WithHealthMonitoring(4))
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(stop) // runs first, also when a t.Fatal below ends the run
		if scrape {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						p.Stats()
					}
				}
			}()
		}
		sizes := rand.New(rand.NewPCG(21, 0))
		h := sha256.New()
		buf := make([]uint64, 2064)
		var enc []byte
		for i := 0; i < calls; i++ {
			n := 1 + sizes.IntN(64)
			if i%4 == 3 {
				n = 65 + sizes.IntN(2000)
			}
			if err := p.Fill(buf[:n]); err != nil {
				t.Fatal(err)
			}
			enc = enc[:0]
			for _, v := range buf[:n] {
				enc = binary.LittleEndian.AppendUint64(enc, v)
			}
			h.Write(enc)
		}
		var sum [32]byte
		h.Sum(sum[:0])
		return sum
	}
	want := serve(false)
	for r := 0; r < runs; r++ {
		if got := serve(true); got != want {
			t.Fatalf("run %d: words served beside a Stats scraper differ from the quiet run", r)
		}
	}
}
