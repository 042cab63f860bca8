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
// answer 5xx or panic. The seeds include the capacity and recovery
// fields older nodes send, which the server ignores.
func FuzzServerRequests(f *testing.F) {
	f.Add(`{"id":"a","url":"http://a","capacity_words":64000}`, `{"id":"a","shards":4,"healthy":1,"quarantined":1,"probation":1,"retired":1,"capacity_words":64000}`, "0")
	f.Add(`{"id":"a","url":"http://a","capacity_words":18446744073709551615}`, `{"id":"a","shards":2,"healthy":2}`, "")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"a","shards":2,"healthy":3}`, "1")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"a","shards":-1,"healthy":-2,"capacity_words":9}`, "x")
	f.Add(`{"id":"a","url":"http://a","capacity_words":3000}`, `{"id":"b","shards":1,"healthy":1}`, "18446744073709551616")
	f.Add(`{"id":"","url":"","capacity_words":0}`, `{"id":"a","draining":true}`, "-1")
	f.Add(`{"id":"a","url":"http://a","capacity_words":1e30}`, `not json`, "99999999999999999999")
	f.Fuzz(func(t *testing.T, register, heartbeat, wait string) {
		ctrl, err := NewController(testConfig(newFakeClock()))
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
		}
	})
}
