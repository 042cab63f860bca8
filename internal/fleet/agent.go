package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Agent is the node side of the control plane, embedded in randd: it
// registers the node on boot (retrying until the controller
// answers), heartbeats the pool's live health on the controller's
// cadence, re-registers automatically when the controller forgets it
// (controller restart), and deregisters on shutdown so clients are
// steered away *before* the node stops serving. The agent performs
// no wall-clock reads — its only time dependence is the heartbeat
// ticker, a real wait.
type Agent struct {
	opts     AgentOptions
	http     *http.Client
	interval time.Duration // effective heartbeat cadence after registration
}

// AgentOptions configures an Agent.
type AgentOptions struct {
	// Controller is the randctl base URL (required).
	Controller string
	// Node is what to register: ID, advertised URL, and optionally
	// the resume token of a drain ticket this node is the successor
	// for.
	Node NodeInfo
	// Report snapshots the node's pool health for each heartbeat
	// (required — wire it to hybridprng.Pool.Stats).
	Report func() HeartbeatReport
	// Interval overrides the controller-assigned heartbeat cadence
	// (0: use what registration returns).
	Interval time.Duration
	// RetryWait is the pause between failed register/heartbeat
	// attempts (0: 1 s).
	RetryWait time.Duration
	// HTTPClient overrides the transport (nil: a dedicated client).
	HTTPClient *http.Client
	// Logf receives operational notes (nil: silent).
	Logf func(format string, args ...any)
}

// NewAgent validates opts and builds an Agent.
func NewAgent(opts AgentOptions) (*Agent, error) {
	if opts.Controller == "" {
		return nil, errors.New("fleet: agent: empty controller URL")
	}
	if opts.Node.ID == "" || opts.Node.URL == "" {
		return nil, errors.New("fleet: agent: node ID and URL are required")
	}
	if opts.Report == nil {
		return nil, errors.New("fleet: agent: Report is required")
	}
	if opts.RetryWait <= 0 {
		opts.RetryWait = time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	a := &Agent{opts: opts, http: opts.HTTPClient}
	if a.http == nil {
		a.http = &http.Client{}
	}
	return a, nil
}

// Register performs one registration attempt and records the
// heartbeat cadence the controller assigned.
func (a *Agent) Register(ctx context.Context) (RegisterResult, error) {
	var res RegisterResult
	if err := a.post(ctx, "/v1/register", a.opts.Node, &res); err != nil {
		return res, err
	}
	a.interval = res.HeartbeatInterval
	if a.opts.Interval > 0 {
		a.interval = a.opts.Interval
	}
	if a.interval <= 0 {
		a.interval = DefaultHeartbeatInterval
	}
	if res.Warning != "" {
		a.opts.Logf("fleet agent %s: register warning: %s", a.opts.Node.ID, res.Warning)
	}
	return res, nil
}

// Run registers (retrying until it succeeds) and then heartbeats
// until ctx is cancelled. A heartbeat the controller answers with
// 404 — it restarted and forgot us — triggers transparent
// re-registration. Run only returns on ctx cancellation.
func (a *Agent) Run(ctx context.Context) {
	for {
		if _, err := a.Register(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			a.opts.Logf("fleet agent %s: register: %v (retrying)", a.opts.Node.ID, err)
			if !sleepCtx(ctx, a.opts.RetryWait) {
				return
			}
			continue
		}
		a.opts.Logf("fleet agent %s: registered with %s (heartbeat %v)",
			a.opts.Node.ID, a.opts.Controller, a.interval)
		if reregister := a.beat(ctx); !reregister {
			return
		}
		// Fall through to re-register: the controller no longer knows
		// us. The node's own pool state is untouched — re-registering
		// with the same ID resumes its place in the fleet.
	}
}

// beat heartbeats on the ticker until ctx cancels (returns false) or
// the controller asks for a re-registration (returns true).
func (a *Agent) beat(ctx context.Context) (reregister bool) {
	t := time.NewTicker(a.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			req := HeartbeatRequest{ID: a.opts.Node.ID, HeartbeatReport: a.opts.Report()}
			err := a.post(ctx, "/v1/heartbeat", req, nil)
			switch {
			case err == nil:
			case errors.Is(err, errNotFound):
				a.opts.Logf("fleet agent %s: controller forgot us; re-registering", a.opts.Node.ID)
				return true
			case ctx.Err() != nil:
				return false
			default:
				// Transient: keep beating. The controller's suspect
				// window is several intervals wide by design.
				a.opts.Logf("fleet agent %s: heartbeat: %v", a.opts.Node.ID, err)
			}
		}
	}
}

// Deregister tells the controller this node is leaving — randd calls
// it on SIGTERM *before* draining, so the endpoint list stops
// pointing at a node about to refuse draws. A failed deregistration
// is loud in randd (non-zero exit): it means clients may keep being
// steered at a corpse until the heartbeat timeout catches up.
func (a *Agent) Deregister(ctx context.Context) error {
	err := a.post(ctx, "/v1/deregister", DeregisterRequest{ID: a.opts.Node.ID}, nil)
	if errors.Is(err, errNotFound) {
		return nil // already forgotten — the goal state
	}
	return err
}

// errNotFound marks a 404 from the controller: the node is unknown.
var errNotFound = errors.New("fleet: not found")

// post sends one JSON request to the controller and decodes the JSON
// reply into out (when non-nil).
func (a *Agent) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.opts.Controller+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
}

// sleepCtx waits d or until ctx cancels; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// WatchEndpoints long-polls the controller's endpoint list and calls
// apply on every version change (including the first fetch). It is
// the consumer-side glue: wire apply to
// (*client.Client).SetEndpoints and SDK failover tracks the live
// fleet — new nodes join the rotation, drained and dead nodes leave
// it — with no restarts. Controller outages degrade gracefully: the
// watcher retries with a fixed pause and the client keeps its last
// list, which mirrors the controller's own partition stance (stale
// endpoints beat no endpoints).
//
// WatchEndpoints returns only when ctx is cancelled.
func WatchEndpoints(ctx context.Context, controller string, hc *http.Client, apply func(version uint64, endpoints []string)) {
	if hc == nil {
		hc = &http.Client{}
	}
	var since uint64
	for ctx.Err() == nil {
		v, eps, err := fetchEndpoints(ctx, controller, hc, since)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			sleepCtx(ctx, time.Second)
			continue
		}
		// A version that went backwards is as meaningful as one that
		// advanced: a restarted (or replaced) controller starts its
		// endpoint versioning from scratch, and treating its lower
		// numbers as "nothing new" would pin every watcher to the dead
		// controller's final list forever. Resync to the new numbering
		// and apply the current view.
		if v != since {
			since = v
			apply(v, eps)
		}
	}
}

// fetchEndpoints performs one (long-polled when since > 0) endpoint
// list fetch.
func fetchEndpoints(ctx context.Context, controller string, hc *http.Client, since uint64) (uint64, []string, error) {
	url := controller + "/v1/endpoints"
	if since > 0 {
		url = fmt.Sprintf("%s?wait=%d", url, since)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return 0, nil, fmt.Errorf("fleet: /v1/endpoints: %s", resp.Status)
	}
	var er EndpointsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&er); err != nil {
		return 0, nil, err
	}
	return er.Version, er.Endpoints, nil
}
