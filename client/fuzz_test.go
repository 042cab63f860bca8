package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseRetryAfter feeds arbitrary Retry-After values to the header
// parser at a fixed clock reading: a delay is never negative, and a
// delay-seconds value (only digits) never yields less than the smaller
// of its value and maxRetryAfter — a huge "retry much later" must not
// wrap into "retry now".
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
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
	f.Add("Tue, 14 Nov 2023 22:14:20 GMT") // now + 60 s
	f.Add("Fri, 31 Dec 9999 23:59:59 GMT")
	f.Add("soon")
	f.Fuzz(func(t *testing.T, v string) {
		d := parseRetryAfter(http.Header{"Retry-After": {v}}, now)
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

// FuzzClientResponse points a client at a server that answers every
// request — draws and /healthz probes alike — with one fuzzed status,
// Content-Length, Retry-After, X-Pool-Degraded, stream token and body.
// Whatever it sends, the client must not panic, a fetched block must
// be a word-aligned prefix of the body no longer than the words
// requested, and every word a draw returns must be 8 aligned bytes of
// that body.
func FuzzClientResponse(f *testing.F) {
	const words = 8
	body := make([]byte, words*8)
	for i := range body {
		body[i] = byte(i*7 + 1)
	}
	f.Add(uint16(200), "", "", "", "", body)
	f.Add(uint16(200), "", "", "", "", make([]byte, 65536)) // 64 KiB for 8 words
	f.Add(uint16(200), "", "", "", "", body[:61])           // torn final word
	f.Add(uint16(200), "20", "", "", "", body)              // Content-Length short of the body
	f.Add(uint16(200), "100", "", "", "", body)             // Content-Length past the body
	f.Add(uint16(200), "-1", "", "true", `"e1-8"`, body)
	f.Add(uint16(429), "", "1", "", "", []byte(nil))
	f.Add(uint16(503), "", "", "", "", []byte("unhealthy"))
	f.Add(uint16(303), "", "", "", "", []byte(nil))
	f.Fuzz(func(t *testing.T, status uint16, contentLength, retryAfter, degraded, token string, body []byte) {
		code := int(status)
		if code < 200 || code > 599 {
			code = 200 + code%400
		}
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for k, v := range map[string]string{
				"Content-Length":  contentLength,
				"Retry-After":     retryAfter,
				"X-Pool-Degraded": degraded,
				"ETag":            token,
				"X-Randd-Epoch":   token,
			} {
				if v != "" {
					w.Header().Set(k, v)
				}
			}
			w.WriteHeader(code)
			w.Write(body)
		}))
		srv.Config.ErrorLog = log.New(io.Discard, "", 0) // invalid fuzzed headers are logged
		srv.Start()
		defer srv.Close()
		c, err := New(Options{
			Endpoints:     []string{srv.URL},
			BlockWords:    words,
			MinBlockWords: words,
			MaxBlockWords: words,
			MaxStall:      20 * time.Millisecond,
			BackoffBase:   time.Millisecond,
			BackoffMax:    2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		b, err := c.fetchBytes(context.Background(), c.eps.eps[0], words)
		if err != nil {
			return // every request gets this answer, so no draw can succeed
		}
		if len(b) == 0 || len(b) > words*8 || len(b)%8 != 0 || !bytes.HasPrefix(body, b) {
			t.Fatalf("fetched a %d-byte block for %d words, want a word-aligned prefix of the %d-byte body",
				len(b), words, len(body))
		}
		served := map[uint64]bool{}
		for i := 0; i+8 <= len(body); i += 8 {
			served[binary.LittleEndian.Uint64(body[i:])] = true
		}
		dst := make([]uint64, 2*words)
		if err := c.Fill(dst); err == nil {
			for i, v := range dst {
				if !served[v] {
					t.Fatalf("word %d = %#x is not 8 aligned bytes of the served body", i, v)
				}
			}
		}
	})
}
