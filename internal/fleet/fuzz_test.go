package fleet

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzServerRequests sends the controller's HTTP API a fuzzed
// register body, heartbeat body and ?wait= value. No request may
// answer 5xx or panic, CheckInvariants must hold after each one, and
// a live node whose last heartbeat reported every shard healthy must
// be rated at its full declared capacity.
func FuzzServerRequests(f *testing.F) {
	f.Add(`{"id":"a","url":"http://a","capacity_words":64000}`, `{"id":"a","shards":4,"healthy":3}`, "0")
	f.Add(`{"id":"a","url":"http://a","capacity_words":18446744073709551615}`, `{"id":"a","shards":2,"healthy":2}`, "")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"a","shards":2,"healthy":3}`, "1")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"a","shards":-1,"healthy":-2,"capacity_words":9}`, "x")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"b","shards":1,"healthy":1}`, "18446744073709551616")
	f.Add(`{"id":"","url":"","capacity_words":0}`, `{"id":"a","draining":true}`, "-1")
	f.Add(`{"id":"a","url":"http://a","capacity_words":1e30}`, `not json`, "99999999999999999999")
	f.Fuzz(func(t *testing.T, register, heartbeat, wait string) {
		clk := newFakeClock()
		cfg := testConfig(clk)
		cfg.StreamWords = 1
		ctrl, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(ctrl, ServerOptions{WatchHold: time.Millisecond}).Handler()
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/register", strings.NewReader(register)),
			httptest.NewRequest(http.MethodPost, "/v1/heartbeat", strings.NewReader(heartbeat)),
			httptest.NewRequest(http.MethodGet, "/v1/endpoints?wait="+url.QueryEscape(wait), nil),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
			}
			if err := ctrl.CheckInvariants(); err != nil {
				t.Fatalf("after %s %s: %v", req.Method, req.URL, err)
			}
		}
		for _, n := range ctrl.Status().Nodes {
			if n.State == StateAlive.String() && n.Shards > 0 && n.Healthy == n.Shards && n.DeratedWords != n.CapacityWords {
				t.Fatalf("node %s: all %d shards healthy, derated %d of capacity %d", n.ID, n.Shards, n.DeratedWords, n.CapacityWords)
			}
		}
	})
}
