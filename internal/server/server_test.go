package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	hybridprng "repro"
)

func newTestServer(t testing.TB, opts ...hybridprng.Option) (*hybridprng.Pool, *httptest.Server) {
	t.Helper()
	if len(opts) == 0 {
		opts = []hybridprng.Option{
			hybridprng.WithSeed(1),
			hybridprng.WithShards(4),
			hybridprng.WithHealthMonitoring(4),
		}
	}
	pool, err := hybridprng.NewPool(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return pool, ts
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeU64(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/u64?n=100")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	var lines int
	for sc.Scan() {
		if _, err := strconv.ParseUint(sc.Text(), 10, 64); err != nil {
			t.Fatalf("line %d %q: %v", lines, sc.Text(), err)
		}
		lines++
	}
	if lines != 100 {
		t.Fatalf("got %d lines, want 100", lines)
	}
	// Default n is 1.
	if _, body := get(t, ts.URL+"/u64"); strings.Count(string(body), "\n") != 1 {
		t.Fatalf("default /u64 body: %q", body)
	}
}

func TestServeU64Validation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"n=abc", "n=-1", "n=99999999999999999999", "n=" + strconv.FormatUint(DefaultMaxWords+1, 10)} {
		if code, _ := get(t, ts.URL+"/u64?"+q); code != http.StatusBadRequest {
			t.Errorf("/u64?%s: status %d, want 400", q, code)
		}
	}
}

func TestServeBytes(t *testing.T) {
	_, ts := newTestServer(t)
	for _, n := range []int{1, 7, 8, 1000, 65536 + 13} {
		code, body := get(t, ts.URL+"/bytes?n="+strconv.Itoa(n))
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(body) != n {
			t.Fatalf("n=%d: got %d bytes", n, len(body))
		}
	}
}

func TestServeStreamBounded(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/stream?words=1000")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(body) != 8000 {
		t.Fatalf("got %d bytes, want 8000", len(body))
	}
	// Words must not be trivially degenerate.
	var zeros int
	for i := 0; i < 1000; i++ {
		if binary.LittleEndian.Uint64(body[8*i:]) == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("%d zero words in 1000", zeros)
	}
}

func TestServeStreamClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // the handler must notice and stop; Cleanup would hang otherwise
}

func TestHealthzFlipsOnFaultInjection(t *testing.T) {
	pool, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy pool: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "4/4") {
		t.Errorf("healthz body: %q", body)
	}
	if err := pool.InjectFault(1); err != nil {
		t.Fatal(err)
	}
	// One quarantined shard: degraded but still in rotation (200),
	// body names the failure for operators.
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded pool: status %d, want 200: %s", code, body)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Errorf("degraded body: %q", body)
	}
	if !strings.Contains(string(body), "health test") && !strings.Contains(string(body), "forced") {
		t.Errorf("degraded body should name the failure: %q", body)
	}
	// Draw endpoints keep working from the healthy shards.
	if code, _ := get(t, ts.URL+"/u64?n=10"); code != http.StatusOK {
		t.Errorf("degraded pool must still serve: status %d", code)
	}
	// Trip everything: probe flips to 503 and draw endpoints 503 too.
	for i := 0; i < pool.Shards(); i++ {
		if err := pool.InjectFault(i); err != nil {
			t.Fatal(err)
		}
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fully tripped pool: healthz status %d, want 503: %s", code, body)
	}
	if !strings.Contains(string(body), "unhealthy") {
		t.Errorf("unhealthy body: %q", body)
	}
	if code, _ := get(t, ts.URL+"/u64?n=10"); code != http.StatusServiceUnavailable {
		t.Errorf("fully tripped pool: /u64 status %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/bytes?n=10"); code != http.StatusServiceUnavailable {
		t.Errorf("fully tripped pool: /bytes status %d, want 503", code)
	}
}

func TestMetrics(t *testing.T) {
	pool, ts := newTestServer(t)
	if _, err := pool.Uint64(); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/u64?n=500")
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var m struct {
		Requests    int64 `json:"requests"`
		WordsServed int64 `json:"words_served"`
		RequestErrs int64 `json:"request_errors"`
		Pool        hybridprng.PoolStats
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if m.Requests < 2 {
		t.Errorf("requests = %d", m.Requests)
	}
	if m.WordsServed < 500 {
		t.Errorf("words_served = %d", m.WordsServed)
	}
	if m.Pool.Shards != 4 || m.Pool.Draws < 501 {
		t.Errorf("pool stats: %+v", m.Pool)
	}
	if len(m.Pool.PerShard) != 4 {
		t.Errorf("per-shard stats missing: %+v", m.Pool)
	}
}

// TestConcurrentRequests hits every endpoint from many goroutines —
// CI runs this under -race, which is the point.
func TestConcurrentRequests(t *testing.T) {
	pool, ts := newTestServer(t)
	paths := []string{"/u64?n=200", "/bytes?n=4096", "/stream?words=512", "/healthz", "/metrics"}
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				code, _ := get(t, ts.URL+paths[(i+j)%len(paths)])
				if code != http.StatusOK && code != http.StatusServiceUnavailable {
					t.Errorf("status %d on %s", code, paths[(i+j)%len(paths)])
				}
			}
		}(i)
	}
	// Flip a shard mid-flight; no request may observe anything but
	// 200/503.
	if err := pool.InjectFault(0); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil pool must fail")
	}
	// /bytes caps at MaxWords*8 bytes; a MaxWords whose product wraps
	// would have turned that cap into a small number.
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(1), hybridprng.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []uint64{1 << 61, 1<<61 + 1} {
		if _, err := New(pool, Options{MaxWords: words}); err == nil {
			t.Errorf("MaxWords %d: New must fail", words)
		}
	}
	srv, err := New(pool, Options{MaxWords: 1<<61 - 1})
	if err != nil {
		t.Fatalf("MaxWords 2^61-1: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body := get(t, ts.URL+"/bytes?n=16"); code != http.StatusOK || len(body) != 16 {
		t.Errorf("MaxWords 2^61-1: /bytes?n=16 = %d with %d bytes, want 200 with 16", code, len(body))
	}
}
