package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	hybridprng "repro"
	"repro/internal/substream"
)

// TestServeBytesReusedBufferNoLeak pins the buffer-reuse contract of
// the zero-alloc /bytes path: a short response served from a recycled
// chunk must be exactly the next bytes of the pool stream, never a
// prefix of whatever the previous (much larger) response left in the
// buffer. Single-shard pools make the stream comparable: on one shard
// Fill(a) followed by Fill(b) is the same word sequence as Fill(a+b).
func TestServeBytesReusedBufferNoLeak(t *testing.T) {
	_, ts := newTestServer(t,
		hybridprng.WithSeed(42), hybridprng.WithShards(1))

	ref, err := hybridprng.NewPool(
		hybridprng.WithSeed(42), hybridprng.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	const big = chunkWords * 8 // one full chunk fills the scratch buffer
	const small = 16
	want := make([]byte, big+small)
	if err := ref.FillBytes(want); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, fmt.Sprintf("%s/bytes?n=%d", ts.URL, big))
	if code != http.StatusOK {
		t.Fatalf("big request: status %d", code)
	}
	if !bytes.Equal(body, want[:big]) {
		t.Fatalf("big response diverges from the reference stream")
	}
	code, body = get(t, fmt.Sprintf("%s/bytes?n=%d", ts.URL, small))
	if code != http.StatusOK {
		t.Fatalf("small request: status %d", code)
	}
	if !bytes.Equal(body, want[big:]) {
		t.Fatalf("short response from a reused buffer is not the next stream bytes:\n got %x\nwant %x",
			body, want[big:])
	}
	// And a tripped pool must answer 503 with an error body — never
	// stale randomness out of the recycled buffer.
	pool2, ts2 := newTestServer(t,
		hybridprng.WithSeed(42), hybridprng.WithShards(1),
		hybridprng.WithHealthMonitoring(4))
	if code, _ := get(t, ts2.URL+"/bytes?n=65536"); code != http.StatusOK {
		t.Fatalf("warm-up request failed: %d", code)
	}
	if err := pool2.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, ts2.URL+"/bytes?n=64")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("tripped pool: status %d, want 503", code)
	}
	if len(body) >= 64 {
		t.Fatalf("tripped pool leaked a %d-byte body: %x", len(body), body)
	}
}

// discardResponse is a ResponseWriter that throws the body away; it
// lets the alloc tests call the handler directly without the
// recorder's growing body buffer polluting the measurement.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestServeBytesSteadyPathAllocs asserts the per-chunk serving path
// allocates nothing on every draw route: a 33-chunk response must cost
// the same number of allocations as a 1-chunk response (the shared
// per-request envelope — routing, query parsing, header strings,
// deadline). A small slack absorbs the rare sync.Pool refill after a
// GC between runs.
func TestServeBytesSteadyPathAllocs(t *testing.T) {
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(7), hybridprng.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	// A one-step walk keeps the scalar tenant draws cheap (the test
	// counts allocations, not stream quality), so the keyed routes
	// stay fast under the race detector.
	reg, err := substream.New(substream.Config{RootSeed: 7, WalkLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{Substreams: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := &discardResponse{h: make(http.Header)}
	for _, rt := range drawRoutes {
		perChunk := chunkWords * 8 // a bytes chunk is chunkWords words
		if rt.text {
			perChunk = chunkWords
		}
		measure := func(chunks int) float64 {
			target := fmt.Sprintf("%s?n=%d", rt.path, chunks*perChunk)
			return testing.AllocsPerRun(20, func() {
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			})
		}
		measure(1) // prime the chunk pool (and create the tenant)
		one := measure(1)
		many := measure(33)
		if many-one > 4 {
			t.Errorf("per-chunk allocations on %s: 1 chunk = %.1f allocs, 33 chunks = %.1f", rt.path, one, many)
		}
	}
}

// BenchmarkServeBytesDirect measures the handler without HTTP
// transport: 16 chunks (1 MiB) per request, so per-request envelope
// costs amortise and the reported allocs/op track the per-chunk path.
func BenchmarkServeBytesDirect(b *testing.B) {
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(7), hybridprng.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(pool, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const nbytes = 16 * chunkWords * 8
	w := &discardResponse{h: make(http.Header)}
	target := fmt.Sprintf("/bytes?n=%d", nbytes)
	b.SetBytes(nbytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		srv.serveBytes(w, r, pool.FillBytes)
	}
}
