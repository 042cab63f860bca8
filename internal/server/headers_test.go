package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	hybridprng "repro"
	"repro/internal/substream"
)

// drawRoutes are the four bounded draw routes: the pool's and the
// tenant "alice"'s, each as decimal text and as raw bytes. One text
// handler and one bytes handler serve both families, so every
// draw-path contract is checked over all four.
var drawRoutes = []struct {
	path  string
	text  bool // decimal lines rather than raw octets
	keyed bool // drawn from the tenant registry rather than the pool
}{
	{"/u64", true, false},
	{"/bytes", false, false},
	{"/v1/stream/alice/u64", true, true},
	{"/v1/stream/alice/bytes", false, true},
}

// newDrawers builds the fixed pool and registry behind newDrawServer;
// a second call yields identical twins for reference streams.
func newDrawers(t testing.TB) (*hybridprng.Pool, *substream.Registry) {
	t.Helper()
	pool, err := hybridprng.NewPool(
		hybridprng.WithSeed(1),
		hybridprng.WithShards(4),
		hybridprng.WithHealthMonitoring(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := substream.New(substream.Config{RootSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pool, reg
}

// newDrawServer serves both route families over newDrawers' pair.
func newDrawServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	pool, reg := newDrawers(t)
	srv, err := New(pool, Options{Substreams: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestDrawResponseHeaders: every draw route must carry the
// client-cooperation headers — explicit Content-Type, the ETag-style
// stream token, and (for single-chunk text and all bytes responses)
// an exact Content-Length — so SDKs can react without a second
// request. The token's epoch is one per server, and its offset only
// ever grows, whichever route served the previous words.
func TestDrawResponseHeaders(t *testing.T) {
	_, ts := newDrawServer(t)
	epoch := ""
	off := int64(-1)
	for _, rt := range drawRoutes {
		n, wantCT, wantLines := 1024, "application/octet-stream", 0
		if rt.text {
			n, wantCT, wantLines = 100, "text/plain; charset=utf-8", 100
		}
		resp, err := http.Get(ts.URL + rt.path + "?n=" + strconv.Itoa(n))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", rt.path, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("%s Content-Type = %q, want %q", rt.path, ct, wantCT)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s Content-Length = %q for a %d-byte body", rt.path, cl, len(body))
		}
		if rt.text {
			if lines := strings.Count(string(body), "\n"); lines != wantLines {
				t.Errorf("%s body has %d lines, want %d", rt.path, lines, wantLines)
			}
		} else if len(body) != n {
			t.Errorf("%s body has %d bytes, want %d", rt.path, len(body), n)
		}
		e := resp.Header.Get("X-Randd-Epoch")
		if len(e) != 16 {
			t.Errorf("%s X-Randd-Epoch = %q, want 16 hex chars", rt.path, e)
		}
		if epoch == "" {
			epoch = e
		} else if e != epoch {
			t.Errorf("epoch differs across routes: %q vs %q", e, epoch)
		}
		etag := resp.Header.Get("ETag")
		if !strings.HasPrefix(etag, `"`+e+"-") || !strings.HasSuffix(etag, `"`) {
			t.Errorf("%s ETag %q does not carry the epoch token %q", rt.path, etag, e)
		}
		// The stream-token offset only ever grows: randomness is never
		// replayed, and the token lets a client verify that.
		if o := etagOffset(t, etag); o <= off {
			t.Errorf("%s stream token offset did not grow: %d then %d", rt.path, off, o)
		} else {
			off = o
		}
		if d := resp.Header.Get("X-Pool-Degraded"); d != "" {
			t.Errorf("%s: healthy pool stamped X-Pool-Degraded=%q", rt.path, d)
		}
	}
}

// TestDrawZeroWordsAndBadKey pins the merged handlers' one behaviour
// at the edges, for both route families: every draw route calls its
// fill function at least once, so n=0 resolves the drawer — an empty
// 200 with Content-Length 0 for the pool or a valid key — and a
// malformed key is a 400 whatever n is.
func TestDrawZeroWordsAndBadKey(t *testing.T) {
	srv, ts := newDrawServer(t)
	for _, rt := range drawRoutes {
		resp, err := http.Get(ts.URL + rt.path + "?n=0")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) != 0 || resp.Header.Get("Content-Length") != "0" {
			t.Errorf("%s?n=0: status %d, %d-byte body, Content-Length %q; want an empty 200",
				rt.path, resp.StatusCode, len(body), resp.Header.Get("Content-Length"))
		}
	}
	if words := srv.words.Value(); words != 0 {
		t.Errorf("n=0 draws served %d words", words)
	}
	errs := srv.reqErrs.Value()
	for _, kind := range []string{"u64", "bytes"} {
		for _, n := range []int{0, 1} {
			target := keyURL(ts.URL, "bad\x00key", kind, n)
			if code, _ := get(t, target); code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", target, code)
			}
		}
	}
	if got := srv.reqErrs.Value() - errs; got != 4 {
		t.Errorf("4 bad-key requests counted %d request errors", got)
	}
}

func etagOffset(t *testing.T, etag string) int64 {
	t.Helper()
	trimmed := strings.Trim(etag, `"`)
	i := strings.LastIndexByte(trimmed, '-')
	if i < 0 {
		t.Fatalf("malformed stream token %q", etag)
	}
	off, err := strconv.ParseInt(trimmed[i+1:], 10, 64)
	if err != nil {
		t.Fatalf("malformed stream token %q: %v", etag, err)
	}
	return off
}

// TestDegradedHeader: once a shard trips, draw responses must warn
// cooperating clients via X-Pool-Degraded while the pool still
// serves.
func TestDegradedHeader(t *testing.T) {
	pool, ts := newTestServer(t)
	if err := pool.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/bytes?n=64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded pool /bytes status %d", resp.StatusCode)
	}
	if d := resp.Header.Get("X-Pool-Degraded"); d != "true" {
		t.Errorf("X-Pool-Degraded = %q, want \"true\"", d)
	}
}

// TestServeU64LargeStillStreams: requests past one chunk stream in
// chunks on every draw route (text without a Content-Length), and
// each chunk is one fill: the response equals a twin drawer filled
// chunkWords words and then the rest.
func TestServeU64LargeStillStreams(t *testing.T) {
	const words = chunkWords + 17
	for _, rt := range drawRoutes {
		_, ts := newDrawServer(t)
		refPool, refReg := newDrawers(t)
		fill := refPool.Fill
		if rt.keyed {
			fill = func(dst []uint64) error { return refReg.Fill("alice", dst) }
		}
		want := make([]uint64, words)
		if err := fill(want[:chunkWords]); err != nil {
			t.Fatal(err)
		}
		if err := fill(want[chunkWords:]); err != nil {
			t.Fatal(err)
		}
		n := words * 8
		if rt.text {
			n = words
		}
		resp, err := http.Get(ts.URL + rt.path + "?n=" + strconv.Itoa(n))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v", rt.path, resp.StatusCode, err)
		}
		got := make([]uint64, 0, words)
		if rt.text {
			if resp.ContentLength != -1 {
				t.Errorf("%s: multi-chunk text carries Content-Length %d, want chunked", rt.path, resp.ContentLength)
			}
			sc := bufio.NewScanner(strings.NewReader(string(body)))
			for sc.Scan() {
				v, err := strconv.ParseUint(sc.Text(), 10, 64)
				if err != nil {
					t.Fatalf("%s line %d %q: %v", rt.path, len(got), sc.Text(), err)
				}
				got = append(got, v)
			}
		} else {
			if resp.ContentLength != int64(n) {
				t.Errorf("%s: Content-Length %d, want %d", rt.path, resp.ContentLength, n)
			}
			for i := 0; i+8 <= len(body); i += 8 {
				got = append(got, binary.LittleEndian.Uint64(body[i:]))
			}
		}
		if len(got) != words {
			t.Fatalf("%s: got %d words, want %d", rt.path, len(got), words)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s word %d = %#x, want %#x", rt.path, i, got[i], want[i])
			}
		}
	}
}

// TestStreamWriteDeadline: a client that connects to a draw route and
// then never reads must be disconnected once a chunk write stalls past
// StreamWriteTimeout, releasing its in-flight slot (observable via the
// timeouts counter and the in-flight gauge). Every route writes through
// the same deadline; the bounded ones are asked for more than the TCP
// buffers hold, and their request deadline (the 30 s default) cannot
// fire first.
func TestStreamWriteDeadline(t *testing.T) {
	for _, route := range []string{"/stream", "/bytes?n=67108864", "/v1/stream/alice/bytes?n=67108864", "/u64?n=16777216"} {
		t.Run(route, func(t *testing.T) {
			pool, err := hybridprng.NewPool(
				hybridprng.WithSeed(1),
				hybridprng.WithShards(2),
			)
			if err != nil {
				t.Fatal(err)
			}
			// A one-step walk keeps the keyed route fast under -race.
			reg, err := substream.New(substream.Config{RootSeed: 1, WalkLen: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(pool, Options{StreamWriteTimeout: 150 * time.Millisecond, Substreams: reg})
			if err != nil {
				t.Fatal(err)
			}
			hs := &http.Server{Handler: srv.Handler()}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go hs.Serve(ln)
			t.Cleanup(func() { hs.Close() })

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// A raw request we never read the response of: the server
			// keeps writing until the TCP buffers fill, then the chunk
			// write blocks and the deadline fires.
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: test\r\n\r\n", route)

			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if srv.timeouts.Value() > 0 && srv.inFlight.Load() == 0 {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			t.Fatalf("stalled client never hit the write deadline (timeouts=%d, in flight=%d)",
				srv.timeouts.Value(), srv.inFlight.Load())
		})
	}
}
