package hybridprng

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/bitsource"
)

// FuzzUnmarshalBinaryNeverPanics feeds arbitrary blobs to the state
// decoder: every input must yield an error or a usable generator,
// never a panic or a broken one.
func FuzzUnmarshalBinaryNeverPanics(f *testing.F) {
	g, _ := New(WithSeed(1))
	g.Uint64()
	blob, _ := g.MarshalBinary()
	f.Add(blob)
	gm, _ := New(WithSeed(2), WithHealthMonitoring(4))
	gm.Uint64()
	monBlob, _ := gm.MarshalBinary()
	f.Add(monBlob)
	gt, _ := New(WithSeed(3), WithHealthMonitoring(4))
	monitor(gt.w).ForceTrip("fuzz seed")
	tripBlob, _ := gt.MarshalBinary()
	f.Add(tripBlob)
	f.Add([]byte{})
	f.Add([]byte("hprng"))
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := new(Generator)
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		// A successful decode must produce a working generator.
		r.Uint64()
		r.Float64()
		r.HealthErr()
	})
}

// FuzzPoolUnmarshalNeverPanics feeds arbitrary blobs to the pool
// snapshot decoder — the bytes randd reads off disk at boot. Corrupt
// input must error, never panic; a successful decode must yield a
// pool that either serves draws or reports ErrPoolUnhealthy.
func FuzzPoolUnmarshalNeverPanics(f *testing.F) {
	p, _ := NewPool(WithSeed(6), WithShards(2), WithShardBuffer(8), WithHealthMonitoring(4))
	for i := 0; i < 20; i++ {
		p.Uint64()
	}
	blob, _ := p.MarshalBinary()
	f.Add(blob)
	p.InjectFault(1)
	tripped, _ := p.MarshalBinary()
	f.Add(tripped)
	f.Add([]byte{})
	f.Add([]byte("hprng-pool"))
	f.Add(bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := new(Pool)
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		if _, err := r.Uint64(); err != nil && err != ErrPoolUnhealthy {
			t.Fatalf("restored pool returned unexpected error: %v", err)
		}
		r.Stats()
		r.HealthErr()
	})
}

// FuzzPoolSnapshotMutation corrupts valid pool snapshots with bit
// flips and truncation — the deep decoder paths a disk-corrupted
// state file would hit. Mutants must decode to an error or a serving
// pool; the pristine blob must always restore the exact streams.
func FuzzPoolSnapshotMutation(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint16(0))
	f.Add(uint16(40), uint8(0xFF), uint16(0))
	f.Add(uint16(90), uint8(1), uint16(17))
	f.Fuzz(func(t *testing.T, pos uint16, flip uint8, truncate uint16) {
		p, err := NewPool(WithSeed(12), WithShards(2), WithShardBuffer(8), WithHealthMonitoring(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 13; i++ {
			p.Uint64()
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), blob...)
		if len(mutated) > 0 {
			mutated[int(pos)%len(mutated)] ^= flip
		}
		if cut := int(truncate) % (len(mutated) + 1); cut > 0 {
			mutated = mutated[:len(mutated)-cut]
		}
		r := new(Pool)
		if err := r.UnmarshalBinary(mutated); err == nil {
			if _, err := r.Uint64(); err != nil && err != ErrPoolUnhealthy {
				t.Fatalf("decodable mutant broke serving: %v", err)
			}
		}
		r2 := new(Pool)
		if err := r2.UnmarshalBinary(blob); err != nil {
			t.Fatalf("pristine pool blob rejected: %v", err)
		}
		a, errA := p.Uint64()
		b, errB := r2.Uint64()
		if errA != nil || errB != nil || a != b {
			t.Fatalf("pristine pool restore diverged: %x/%v vs %x/%v", a, errA, b, errB)
		}
	})
}

// FuzzParallelUnmarshalNeverPanics covers the Parallel container
// decoder the same way.
func FuzzParallelUnmarshalNeverPanics(f *testing.F) {
	p, _ := NewParallel(2, WithSeed(8), WithHealthMonitoring(4))
	p.Fill(make([]uint64, 64))
	blob, _ := p.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte("hprng-par"))
	f.Add(bytes.Repeat([]byte{0x77}, 250))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := new(Parallel)
		if err := r.UnmarshalBinary(data); err != nil {
			return
		}
		for i := 0; i < r.Workers(); i++ {
			r.Worker(i).Uint64()
		}
		r.HealthErr()
	})
}

// FuzzCheckpointRoundTrip marshals after a fuzzed number of draws
// and checks the restored stream continues identically.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(42), uint16(97))
	f.Add(uint64(1<<63), uint16(999))
	f.Fuzz(func(t *testing.T, seed uint64, drawsRaw uint16) {
		draws := int(drawsRaw) % 300
		g, err := New(WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < draws; i++ {
			g.Uint64()
		}
		blob, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r := new(Generator)
		if err := r.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if g.Uint64() != r.Uint64() {
				t.Fatal("restored stream diverged")
			}
		}
	})
}

// FuzzOptionsNeverPanic exercises the constructor across fuzzed
// option values: invalid combinations must error, not panic.
func FuzzOptionsNeverPanic(f *testing.F) {
	f.Add(int64(64), int64(64), uint64(0))
	f.Add(int64(-5), int64(0), uint64(9))
	f.Add(int64(1), int64(1000), uint64(1))
	f.Fuzz(func(t *testing.T, walk, initWalk int64, seed uint64) {
		g, err := New(
			WithWalkLength(int(walk%10000)),
			WithInitWalkLength(int(initWalk%10000)),
			WithSeed(seed),
		)
		if err != nil {
			return
		}
		g.Uint64()
	})
}

// FuzzStateMutationNeverPanics starts from a *valid* checkpoint and
// applies targeted corruption (bit flips, truncation), which drives
// the decoder much deeper than arbitrary-bytes fuzzing: most mutants
// pass the magic/version gates and stress the field validation.
// Every mutant must round-trip to an error or a working generator —
// never a panic — and an unmutated blob must restore the exact
// stream.
func FuzzStateMutationNeverPanics(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint16(0))
	f.Add(uint64(2), uint16(7), uint8(3), uint16(0))
	f.Add(uint64(3), uint16(40), uint8(0xFF), uint16(5))
	f.Fuzz(func(t *testing.T, seed uint64, pos uint16, flip uint8, truncate uint16) {
		g, err := New(WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		g.Uint64()
		blob, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), blob...)
		if len(mutated) > 0 {
			mutated[int(pos)%len(mutated)] ^= flip
		}
		if cut := int(truncate) % (len(mutated) + 1); cut > 0 {
			mutated = mutated[:len(mutated)-cut]
		}
		r := new(Generator)
		if err := r.UnmarshalBinary(mutated); err == nil {
			r.Uint64() // decodable mutants must still work
		}
		// The pristine blob must always restore the exact stream.
		r2 := new(Generator)
		if err := r2.UnmarshalBinary(blob); err != nil {
			t.Fatalf("pristine blob rejected: %v", err)
		}
		if g.Uint64() != r2.Uint64() {
			t.Fatal("pristine restore diverged")
		}
	})
}

// FuzzOptionValidation fuzzes the stringly/float option paths —
// WithFeed, WithHealthMonitoring, WithWalkLength, WithShards,
// WithShardBuffer. Invalid values must error (a NaN min-entropy
// claim once slipped through the `<= 0 || > 8` comparison chain, and
// a claim under bitsource.HMinFloor wrote snapshots that could not be
// restored); valid ones must yield a generator whose first draw works
// and whose health state starts clean, and a generator and a pool
// that restore from their own checkpoints and continue bitwise.
func FuzzOptionValidation(f *testing.F) {
	f.Add("glibc", 4.0, 64, 1)
	f.Add("ansic", 8.0, 1, 2)
	f.Add("splitmix", 0.5, 128, 7)
	f.Add("", -1.0, 0, 0)
	f.Add("mt19937", math.NaN(), -3, 100000)
	f.Add("glibc", 1e-5, 64, 2)
	f.Fuzz(func(t *testing.T, feed string, hMin float64, walk, shards int) {
		validClaim := hMin >= bitsource.HMinFloor && hMin <= 8
		opts := []Option{WithFeed(feed), WithHealthMonitoring(hMin), WithSeed(9)}
		if walk != 0 {
			opts = append(opts, WithWalkLength(walk%2000))
		}
		g, err := New(opts...)
		if err != nil {
			if feed == FeedGlibc || feed == FeedANSIC || feed == FeedSplitMix {
				if validClaim && (walk == 0 || walk%2000 >= 1) {
					t.Fatalf("valid options rejected: %v", err)
				}
			}
			return
		}
		if !validClaim {
			t.Fatalf("invalid min-entropy claim %v accepted", hMin)
		}
		g.Uint64()
		if g.HealthErr() != nil {
			t.Fatalf("fresh generator unhealthy: %v", g.HealthErr())
		}
		data, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		rg := new(Generator)
		if err := rg.UnmarshalBinary(data); err != nil {
			t.Fatalf("generator cannot restore its own checkpoint: %v", err)
		}
		want, got := make([]uint64, 64), make([]uint64, 64)
		g.Fill(want)
		rg.Fill(got)
		if !slices.Equal(got, want) {
			t.Fatal("restored generator diverged")
		}
		// The same options must also build a working sharded pool.
		poolOpts := append(opts, WithShards(1+abs(shards)%8), WithShardBuffer(16))
		p, err := NewPool(poolOpts...)
		if err != nil {
			t.Fatalf("NewPool rejected options New accepted: %v", err)
		}
		if _, err := p.Uint64(); err != nil {
			t.Fatal(err)
		}
		if data, err = p.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		rp := new(Pool)
		if err := rp.UnmarshalBinary(data); err != nil {
			t.Fatalf("pool cannot restore its own checkpoint: %v", err)
		}
		if err := p.Fill(want); err != nil {
			t.Fatal(err)
		}
		if err := rp.Fill(got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatal("restored pool diverged")
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == math.MinInt {
			return 0
		}
		return -n
	}
	return n
}
