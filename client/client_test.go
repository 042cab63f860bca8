package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	hybridprng "repro"
	"repro/internal/server"
)

// newRanddServer boots an in-process randd (pool + HTTP layer) over
// httptest and returns its base URL.
func newRanddServer(t testing.TB, poolOpts ...hybridprng.Option) (*hybridprng.Pool, *httptest.Server) {
	t.Helper()
	if len(poolOpts) == 0 {
		poolOpts = []hybridprng.Option{
			hybridprng.WithSeed(1),
			hybridprng.WithShards(4),
			hybridprng.WithHealthMonitoring(4),
		}
	}
	pool, err := hybridprng.NewPool(poolOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(pool, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return pool, ts
}

func newTestClient(t testing.TB, opts Options) *Client {
	t.Helper()
	cl, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestStreamEquality: a client over a single seeded server must see
// exactly the pool's word stream — the prefetch ring reorders
// nothing, loses nothing, tears nothing.
func TestStreamEquality(t *testing.T) {
	_, ts := newRanddServer(t, hybridprng.WithSeed(42), hybridprng.WithShards(1))
	cl := newTestClient(t, Options{
		Endpoints:     []string{ts.URL},
		BlockWords:    512,
		MinBlockWords: 512,
		MaxBlockWords: 512,
	})

	ref, err := hybridprng.NewPool(hybridprng.WithSeed(42), hybridprng.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	want := make([]uint64, n)
	// The server serves /bytes through Fill in 512-word requests;
	// mirror that so both sides take the pool's direct-fill path.
	for off := 0; off < n; off += 512 {
		if err := ref.Fill(want[off : off+512]); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 2048; i++ {
		v, err := cl.Uint64()
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		if v != want[i] {
			t.Fatalf("draw %d = %#x, want %#x", i, v, want[i])
		}
	}
	rest := make([]uint64, 2048)
	if err := cl.Fill(rest); err != nil {
		t.Fatal(err)
	}
	for i, v := range rest {
		if v != want[2048+i] {
			t.Fatalf("Fill word %d = %#x, want %#x", i, v, want[2048+i])
		}
	}
	if st := cl.Stats(); st.Draws != n {
		t.Errorf("Draws = %d, want %d", st.Draws, n)
	}
}

// TestReadAlignment: an odd-sized Read that leaves a sub-word tail
// at the end of a block forces the next Uint64 onto the following
// block — the tail is discarded and accounted, never stitched into a
// torn word.
func TestReadAlignment(t *testing.T) {
	_, ts := newRanddServer(t)
	cl := newTestClient(t, Options{
		Endpoints:     []string{ts.URL},
		BlockWords:    512,
		MinBlockWords: 512,
		MaxBlockWords: 512, // 4096-byte blocks
	})
	buf := make([]byte, 4093) // leaves a 3-byte tail in block 1
	if n, err := cl.Read(buf); n != 4093 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if _, err := cl.Uint64(); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().DiscardedBytes; d != 3 {
		t.Errorf("DiscardedBytes = %d, want 3 (block-end residue of a 4093-byte read)", d)
	}
}

// TestFailoverMidStream is the acceptance bar: kill the active
// endpoint mid-stream and lose no draws — the client cuts over to
// the surviving server within one backoff window.
func TestFailoverMidStream(t *testing.T) {
	_, tsA := newRanddServer(t, hybridprng.WithSeed(1), hybridprng.WithShards(2))
	_, tsB := newRanddServer(t, hybridprng.WithSeed(2), hybridprng.WithShards(2))
	cl := newTestClient(t, Options{
		Endpoints:   []string{tsA.URL, tsB.URL},
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	})

	draw := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Uint64(); err != nil {
				t.Fatalf("draw %d: %v", i, err)
			}
		}
	}
	draw(20000)
	// Kill server A the way a SIGKILL would look from the network:
	// in-flight connections torn down, new ones refused.
	tsA.CloseClientConnections()
	tsA.Close()
	start := time.Now()
	draw(100000)
	t.Logf("drew 100k words across the kill in %v; stats %+v", time.Since(start), cl.Stats())
	if st := cl.Stats(); st.Draws != 120000 {
		t.Errorf("Draws = %d, want 120000", st.Draws)
	}
}

// TestCloseUnblocksDraw: Close must promptly unblock a draw stalled
// on an empty ring (endpoint accepting connections but never
// answering).
func TestCloseUnblocksDraw(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer hang.Close()
	cl, err := New(Options{Endpoints: []string{hang.URL}})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Uint64()
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cl.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("draw after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("draw still blocked 5s after Close")
	}
}

// TestOptionsValidation: bad configurations fail at New, not at the
// first draw.
func TestOptionsValidation(t *testing.T) {
	for name, opts := range map[string]Options{
		"no endpoints":        {},
		"bad scheme":          {Endpoints: []string{"ftp://host"}},
		"missing host":        {Endpoints: []string{"http://"}},
		"min above max":       {Endpoints: []string{"http://h"}, MinBlockWords: 4096, MaxBlockWords: 512},
		"jitter out of range": {Endpoints: []string{"http://h"}, JitterFrac: 1.5},
	} {
		if _, err := New(opts); err == nil {
			t.Errorf("%s: New accepted %+v", name, opts)
		}
	}
}

// TestAdaptiveBlockGrowth: a consumer that outruns the network must
// drive the block size up — the client-side block-size sweep finding
// its sweet spot.
func TestAdaptiveBlockGrowth(t *testing.T) {
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(3), hybridprng.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(pool, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond) // a network worth hiding
		srv.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	cl := newTestClient(t, Options{
		Endpoints:     []string{slow.URL},
		BlockWords:    512,
		MinBlockWords: 512,
		MaxBlockWords: 1 << 16,
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := cl.Uint64(); err != nil {
			t.Fatal(err)
		}
		if cl.Stats().BlockWords > 512 {
			return // grew: the stall signal worked
		}
	}
	t.Fatalf("block size never grew above 512 under a fast consumer; stats %+v", cl.Stats())
}

// TestRandAdapter: the math/rand/v2 adapter draws through the ring.
func TestRandAdapter(t *testing.T) {
	_, ts := newRanddServer(t)
	cl := newTestClient(t, Options{Endpoints: []string{ts.URL}})
	r := cl.Rand()
	f := r.Float64()
	if f < 0 || f >= 1 {
		t.Fatalf("Float64 = %v", f)
	}
	if n := r.IntN(10); n < 0 || n >= 10 {
		t.Fatalf("IntN(10) = %d", n)
	}
}
