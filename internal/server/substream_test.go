package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	hybridprng "repro"
	"repro/internal/bitsource"
	"repro/internal/substream"
)

// subResumeRegistry builds the fixed-derivation registry configuration
// shared by the interrupted and uninterrupted runs of the keyed
// continuity tests.
func subResumeRegistry(t *testing.T) *substream.Registry {
	t.Helper()
	reg, err := substream.New(substream.Config{RootSeed: 20260808, MaxResident: 4})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func keyURL(base, key, kind string, n int) string {
	return base + "/v1/stream/" + url.PathEscape(key) + "/" + kind + "?n=" + strconv.Itoa(n)
}

func getKeyedBytes(t *testing.T, base, key string, n int) []byte {
	t.Helper()
	resp, err := http.Get(keyURL(base, key, "bytes", n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed bytes status %d: %s", resp.StatusCode, body)
	}
	if len(body) != n {
		t.Fatalf("keyed bytes returned %d bytes, want %d", len(body), n)
	}
	return body
}

// TestKillResumeKeyedStreamContinuity extends the exact-resume
// acceptance bar to tenant streams: serve pool traffic AND two keyed
// streams, snapshot, restore a fresh node from the state file, keep
// serving — every stream's concatenation must be bitwise identical
// to an uninterrupted run. This is what "the registry blob
// round-trips through the snapshot machinery" means operationally.
func TestKillResumeKeyedStreamContinuity(t *testing.T) {
	const (
		poolWords = chunkWords
		keyBytes  = 4096
	)
	keys := []string{"alice", "tenant/eu-west-1"}
	statePath := filepath.Join(t.TempDir(), "randd.state")

	// First life: interleaved pool and keyed traffic, snapshot, die.
	poolA, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := New(poolA, Options{StatePath: statePath, Substreams: subResumeRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	htA := httptest.NewServer(srvA.Handler())
	beforePool := getStream(t, htA.URL, poolWords)
	before := map[string][]byte{}
	for _, k := range keys {
		before[k] = getKeyedBytes(t, htA.URL, k, keyBytes)
	}
	postSnapshot(t, htA.URL)
	htA.Close()

	// Second life: pool and registry restored from the container.
	blob, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	poolBlob, regBlob, err := DecodeNodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if regBlob == nil {
		t.Fatal("snapshot of a substream-enabled server did not carry a registry blob")
	}
	poolB := new(hybridprng.Pool)
	if err := poolB.UnmarshalBinary(poolBlob); err != nil {
		t.Fatal(err)
	}
	regB, err := substream.Restore(regBlob, substream.Config{MaxResident: 4})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(poolB, Options{Substreams: regB})
	if err != nil {
		t.Fatal(err)
	}
	htB := httptest.NewServer(srvB.Handler())
	defer htB.Close()
	afterPool := getStream(t, htB.URL, poolWords)
	after := map[string][]byte{}
	for _, k := range keys {
		after[k] = getKeyedBytes(t, htB.URL, k, keyBytes)
	}

	// Control: one uninterrupted node at the same seeds.
	poolC, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srvC, err := New(poolC, Options{Substreams: subResumeRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	htC := httptest.NewServer(srvC.Handler())
	defer htC.Close()
	wantPool := getStream(t, htC.URL, 2*poolWords)
	if got := append(append([]byte(nil), beforePool...), afterPool...); !bytes.Equal(got, wantPool) {
		t.Fatal("pool stream diverged across the keyed-state snapshot")
	}
	for _, k := range keys {
		want := getKeyedBytes(t, htC.URL, k, 2*keyBytes)
		got := append(append([]byte(nil), before[k]...), after[k]...)
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && got[i] == want[i] {
				i++
			}
			t.Fatalf("tenant %q stream diverges from uninterrupted run at byte %d", k, i)
		}
	}
}

// TestDrainHandsOverKeyedState is the controller-drain half of the
// keyed continuity bar: POST /drain on a substream-enabled node
// answers with the composite container, a successor built from it
// resumes a named tenant's stream bitwise, and the drained node
// refuses further keyed draws.
func TestDrainHandsOverKeyedState(t *testing.T) {
	const keyBytes = 2048
	poolA, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := New(poolA, Options{Substreams: subResumeRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	htA := httptest.NewServer(srvA.Handler())
	defer htA.Close()
	before := getKeyedBytes(t, htA.URL, "drill-tenant", keyBytes)

	resp, err := http.Post(htA.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d, err %v", resp.StatusCode, err)
	}

	// The drained node refuses keyed draws like everything else.
	refuse, err := http.Get(keyURL(htA.URL, "drill-tenant", "bytes", 8))
	if err != nil {
		t.Fatal(err)
	}
	refuse.Body.Close()
	if refuse.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained keyed draw status %d, want 503", refuse.StatusCode)
	}

	poolBlob, regBlob, err := DecodeNodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	poolB := new(hybridprng.Pool)
	if err := poolB.UnmarshalBinary(poolBlob); err != nil {
		t.Fatal(err)
	}
	regB, err := substream.Restore(regBlob, substream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := New(poolB, Options{Substreams: regB})
	if err != nil {
		t.Fatal(err)
	}
	htB := httptest.NewServer(srvB.Handler())
	defer htB.Close()
	after := getKeyedBytes(t, htB.URL, "drill-tenant", keyBytes)

	poolC, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srvC, err := New(poolC, Options{Substreams: subResumeRegistry(t)})
	if err != nil {
		t.Fatal(err)
	}
	htC := httptest.NewServer(srvC.Handler())
	defer htC.Close()
	want := getKeyedBytes(t, htC.URL, "drill-tenant", 2*keyBytes)
	got := append(append([]byte(nil), before...), after...)
	if !bytes.Equal(got, want) {
		t.Fatal("tenant stream diverged across the drain handover")
	}
}

// TestNodeStateBackCompat pins the dual-format decode: a registry-less
// server still writes raw pool blobs (existing fleets keep working),
// and DecodeNodeState passes them through untouched.
func TestNodeStateBackCompat(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.bin")
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(5), hybridprng.WithShards(2), hybridprng.WithShardBuffer(16))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	poolBlob, regBlob, err := DecodeNodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if regBlob != nil {
		t.Fatal("registry-less snapshot grew a registry blob")
	}
	if !bytes.Equal(poolBlob, blob) {
		t.Fatal("raw pool blob did not pass through DecodeNodeState")
	}
	if err := new(hybridprng.Pool).UnmarshalBinary(poolBlob); err != nil {
		t.Fatalf("raw pool blob no longer restores: %v", err)
	}
}

func TestSubstreamRateLimitHTTP(t *testing.T) {
	now := time.Unix(4000, 0)
	reg, err := substream.New(substream.Config{
		RootSeed:   1,
		RatePerSec: 16,
		Burst:      16,
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{Substreams: reg})
	if err != nil {
		t.Fatal(err)
	}
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()

	// The burst serves; the next draw is a clean 429 with a refill
	// hint, and the shed lands in the tenant's meters.
	getKeyedBytes(t, ht.URL, "metered", 16*8)
	resp, err := http.Get(keyURL(ht.URL, "metered", "u64", 1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget keyed draw status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", ra)
	}

	// The clock refills the bucket.
	now = now.Add(time.Second)
	getKeyedBytes(t, ht.URL, "metered", 8)

	// Per-tenant meters are scrapable.
	mresp, err := http.Get(ht.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var metrics struct {
		Substreams struct {
			Tenants   int                     `json:"tenants"`
			Resident  int                     `json:"resident"`
			PerTenant []substream.TenantStats `json:"per_tenant"`
		} `json:"substreams"`
	}
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if metrics.Substreams.Tenants != 1 || len(metrics.Substreams.PerTenant) != 1 {
		t.Fatalf("substream metrics: %+v", metrics.Substreams)
	}
	ts := metrics.Substreams.PerTenant[0]
	if ts.Key != "metered" || ts.Sheds != 1 || ts.Bytes != 16*8+8 {
		t.Fatalf("tenant meters: %+v", ts)
	}
}

func TestSubstreamKeyValidationHTTP(t *testing.T) {
	reg, err := substream.New(substream.Config{RootSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{Substreams: reg})
	if err != nil {
		t.Fatal(err)
	}
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	for _, key := range []string{" ", "bad\x00key", string(bytes.Repeat([]byte("k"), substream.MaxKeyBytes+1))} {
		resp, err := http.Get(keyURL(ht.URL, key, "u64", 1))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q status %d, want 400", key, resp.StatusCode)
		}
	}
	// Equivalent spellings draw one stream: a padded key continues
	// the trimmed key's stream rather than starting a fresh one.
	a := getKeyedBytes(t, ht.URL, "alice", 64)
	b := getKeyedBytes(t, ht.URL, " alice ", 64)
	if bytes.Equal(a, b) {
		t.Fatal("padded spelling restarted the stream instead of continuing it")
	}
}

// TestSubstreamTrippedTenantHTTP: a tenant whose SP 800-90B monitor
// has tripped answers 503 with the health error's text and no stream
// bytes, while other tenants keep serving.
func TestSubstreamTrippedTenantHTTP(t *testing.T) {
	src, err := substream.New(substream.Config{RootSeed: 1, HealthHMin: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Uint64("alice"); err != nil {
		t.Fatal(err)
	}
	reg, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Trip alice's monitor in the checkpoint. Her generator blob ends
	// the registry blob, ahead of four u64 meters, with the monitor
	// state: a u16 length, then 30 bytes whose last is the trip flag.
	// A tripped monitor appends its failure's test name and detail, two
	// u16-prefixed strings (here empty), so both lengths grow by 4.
	le := binary.LittleEndian
	start, end := bytes.LastIndex(reg, []byte("hprng")), len(reg)-32
	tripped := bytes.Clone(reg[:end])
	tripped[end-1] = 1
	le.PutUint16(tripped[end-32:], le.Uint16(tripped[end-32:])+4)
	le.PutUint32(tripped[start-4:], le.Uint32(tripped[start-4:])+4)
	tripped = append(append(tripped, 0, 0, 0, 0), reg[end:]...)
	regB, err := substream.Restore(tripped, substream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := hybridprng.NewPool(resumeOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{Substreams: regB})
	if err != nil {
		t.Fatal(err)
	}
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	resp, err := http.Get(keyURL(ht.URL, "alice", "bytes", 4096))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped tenant: status %d with a %d-byte body, want 503", resp.StatusCode, len(body))
	}
	var he *bitsource.HealthError
	if err := regB.Fill("alice", make([]uint64, 1)); !errors.As(err, &he) || string(body) != he.Error()+"\n" {
		t.Fatalf("tripped tenant: 503 body %q, Fill error %v; want the HealthError's text", body, err)
	}
	getKeyedBytes(t, ht.URL, "bob", 64)
}

func TestSubstreamRoutesAbsentWithoutRegistry(t *testing.T) {
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(5), hybridprng.WithShards(1), hybridprng.WithShardBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ht := httptest.NewServer(srv.Handler())
	defer ht.Close()
	resp, err := http.Get(ht.URL + "/v1/stream/alice/u64")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("keyed route on a registry-less server: status %d, want 404", resp.StatusCode)
	}
}

// BenchmarkServeSubstreamBytes measures the keyed /bytes path — the
// per-tenant analogue of BenchmarkServeBytes, with the registry
// lookup and metering on the hot path. 1M words per request.
func BenchmarkServeSubstreamBytes(b *testing.B) {
	reg, err := substream.New(substream.Config{RootSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(1), hybridprng.WithHealthMonitoring(4))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(pool, Options{Substreams: reg})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client := ts.Client()
	const words = 1 << 20
	url := fmt.Sprintf("%s/v1/stream/bench-tenant/bytes?n=%d", ts.URL, words*8)
	b.SetBytes(words * 8)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if got := drain(b, client, url); got != words*8 {
			b.Fatalf("short body: %d", got)
		}
	}
	b.ReportMetric(float64(b.N)*words/time.Since(start).Seconds(), "words/s")
}
