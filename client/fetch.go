package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// fetchBlock obtains one block of words*8 random bytes from the
// fleet, failing over between endpoints until it succeeds or makes
// no progress for MaxStall. Waits between attempts come from the
// endpoint set's backoff bookkeeping — Retry-After and exponential
// backoff are both honoured here, so a struggling fleet is probed,
// never hammered.
func (c *Client) fetchBlock(words int) ([]byte, *endpoint, error) {
	deadline := c.now().Add(c.opts.MaxStall)
	var lastErr error
	for {
		if err := c.ctx.Err(); err != nil {
			return nil, nil, err
		}
		// A Substream handle inside its tenant's shed window waits it
		// out here instead of hammering a perfectly healthy endpoint
		// with draws the token bucket will refuse anyway.
		if until := time.Unix(0, c.shedUntil.Load()); c.now().Before(until) {
			if c.now().After(deadline) {
				if lastErr == nil {
					lastErr = fmt.Errorf("client: tenant stream shed until %v", until)
				}
				return nil, nil, lastErr
			}
			wait := until.Sub(c.now())
			if u := deadline.Sub(c.now()); wait > u {
				wait = u + time.Millisecond
			}
			select {
			case <-c.after(wait):
			case <-c.ctx.Done():
				return nil, nil, c.ctx.Err()
			}
			continue
		}
		ep, wait := c.eps.pick(c.now())
		if ep == nil {
			if c.now().After(deadline) {
				if lastErr == nil {
					lastErr = fmt.Errorf("client: no endpoint available within %v", c.opts.MaxStall)
				}
				return nil, nil, lastErr
			}
			if wait <= 0 {
				wait = 10 * time.Millisecond
			}
			if until := deadline.Sub(c.now()); wait > until {
				wait = until + time.Millisecond
			}
			select {
			case <-c.after(wait):
			case <-c.ctx.Done():
				return nil, nil, c.ctx.Err()
			}
			continue
		}
		b, err := c.fetchOnce(ep, words)
		if err == nil {
			return b, ep, nil
		}
		lastErr = err
		c.retries.Add(1)
		if c.now().After(deadline) {
			return nil, nil, lastErr
		}
	}
}

// fetchOnce runs a single attempt against ep: a /healthz probe first
// when the endpoint is coming back from failures (active health
// checking — don't route draws to a server that says it is down),
// then the block fetch itself.
func (c *Client) fetchOnce(ep *endpoint, words int) ([]byte, error) {
	if c.eps.suspect(ep) {
		if err := c.probe(ep); err != nil {
			c.eps.fail(ep, 0)
			return nil, err
		}
	}
	return c.fetchBytes(c.ctx, ep, words)
}

// probe asks ep's /healthz whether it is serving. "degraded" counts
// as serving — that is exactly what the state means.
func (c *Client) probe(ep *endpoint) error {
	ctx, cancel := context.WithTimeout(c.ctx, DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: probe %s: %w", ep.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: %s/healthz: %s", ep.base, resp.Status)
	}
	return nil
}

// fetchBytes performs one GET against ep's draw path — /bytes for
// the shared pool, the keyed /v1/stream/{key}/bytes for a Substream
// handle — and returns the word-aligned prefix of the body, at most
// the words requested. Endpoint health bookkeeping happens here: 429
// arms the Retry-After backoff, other failures arm the exponential
// one, success clears it and records the cooperation headers. A body
// of the wrong length is both: its whole words, up to the requested
// count, are valid served randomness (kept), but the endpoint clearly
// misbehaved (marked failed). A partial trailing word is dropped — it
// must never be stitched to the next block — and the body is read no
// further than one byte past the request, so an endless body cannot
// grow the client's memory.
func (c *Client) fetchBytes(ctx context.Context, ep *endpoint, words int) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep.base+c.drawPath+"?n="+strconv.Itoa(words*8), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.eps.fail(ep, 0)
		return nil, fmt.Errorf("client: %s%s: %w", ep.base, c.drawPath, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		c.sheds.Add(1)
		// A 429 on the shared /bytes path means the server itself is
		// overloaded — back the endpoint off fleet-wide. On a keyed
		// substream path it means this tenant's token bucket ran dry,
		// which says nothing about the endpoint's health: poisoning
		// the shared failover state would stall every other tenant,
		// so only this handle backs off, for the bucket's own
		// Retry-After estimate.
		ra := parseRetryAfter(resp.Header, c.now())
		if c.parent == nil {
			c.eps.fail(ep, ra)
		} else {
			if ra <= 0 {
				ra = c.opts.BackoffBase
			}
			c.shedUntil.Store(c.now().Add(ra).UnixNano())
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("client: %s shed the request (429)", ep.base)
	default:
		c.eps.fail(ep, 0)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("client: %s%s: %s", ep.base, c.drawPath, resp.Status)
	}
	want := words * 8
	// One buffer one byte past the request, read until the body or the
	// buffer ends: a full buffer means an oversized body. Unlike
	// io.ReadFull this keeps a transport's io.ErrUnexpectedEOF (a body
	// cut short of its Content-Length) apart from the body's own end.
	body := make([]byte, want+1)
	var n int
	var readErr error
	for n < len(body) && readErr == nil {
		var k int
		k, readErr = resp.Body.Read(body[n:])
		n += k
	}
	if readErr == io.EOF {
		readErr = nil
	}
	body = body[:n]
	usable := min(len(body), want)
	usable -= usable % 8
	if usable == 0 {
		c.eps.fail(ep, 0)
		if readErr != nil {
			return nil, fmt.Errorf("client: %s%s body: %w", ep.base, c.drawPath, readErr)
		}
		return nil, fmt.Errorf("client: %s%s: empty block", ep.base, c.drawPath)
	}
	if readErr != nil || len(body) != want {
		// Truncated or oversized: keep the aligned prefix, drop the
		// rest, and treat the endpoint as failing.
		c.discarded.Add(uint64(len(body) - usable))
		c.eps.fail(ep, 0)
		return body[:usable], nil
	}
	c.eps.ok(ep, resp.Header)
	return body, nil
}
