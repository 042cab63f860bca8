package client

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseRetryAfter feeds arbitrary Retry-After values to the header
// parser: a delay is never negative, and a delay-seconds value (only
// digits) never yields less than the smaller of its value and
// maxRetryAfter — a huge "retry much later" must not wrap into "retry
// now".
func FuzzParseRetryAfter(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("1")
	f.Add("120")
	f.Add("-1")
	f.Add("+5")
	f.Add("9223372036")
	f.Add("9223372037")
	f.Add("18446744074")
	f.Add("99999999999999999999999")
	f.Add("Wed, 21 Oct 2015 07:28:00 GMT")
	f.Add("Fri, 31 Dec 9999 23:59:59 GMT")
	f.Add("soon")
	f.Fuzz(func(t *testing.T, v string) {
		d := parseRetryAfter(http.Header{"Retry-After": {v}})
		if d < 0 {
			t.Fatalf("Retry-After %q: negative delay %v", v, d)
		}
		if v == "" || strings.Trim(v, "0123456789") != "" {
			return
		}
		want := maxRetryAfter
		if secs, err := strconv.ParseUint(v, 10, 64); err == nil && secs < uint64(maxRetryAfter/time.Second) {
			want = time.Duration(secs) * time.Second
		}
		if d < want {
			t.Fatalf("Retry-After %q: %v, want at least %v", v, d, want)
		}
	})
}
