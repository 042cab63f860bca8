package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Wire types for the controller's HTTP API. Deliberately small and
// boring JSON: curl is a fully supported client.

// HeartbeatRequest is the POST /v1/heartbeat body.
type HeartbeatRequest struct {
	ID string `json:"id"`
	HeartbeatReport
}

// DeregisterRequest is the POST /v1/deregister body.
type DeregisterRequest struct {
	ID string `json:"id"`
}

// EndpointsResponse is the GET /v1/endpoints body — the versioned
// live endpoint list clients feed into SetEndpoints.
type EndpointsResponse struct {
	Version   uint64   `json:"version"`
	Endpoints []string `json:"endpoints"`
}

// Defaults for ServerOptions fields left zero.
const (
	DefaultDrainTimeout = 30 * time.Second
	DefaultWatchHold    = 30 * time.Second
)

// DefaultMaxDrainBlob caps the pool snapshot size the controller will
// relay during a drain — a corrupted node must not OOM the control
// plane. A blob over the cap FAILS the drain (and rolls it back)
// rather than being truncated: a silently cut blob would retire the
// node and boot the successor from corrupt state, an unrecoverable
// planned drain.
const DefaultMaxDrainBlob = 1 << 30

// ServerOptions tunes the controller's HTTP layer.
type ServerOptions struct {
	// NodeClient performs the controller's outbound calls to node
	// admin endpoints (the drain orchestration). nil: a dedicated
	// client.
	NodeClient *http.Client
	// DrainTimeout bounds the node-side snapshot call during POST
	// /v1/drain (0 = DefaultDrainTimeout).
	DrainTimeout time.Duration
	// WatchHold is the longest a GET /v1/endpoints long-poll is held
	// before answering with the unchanged list (0 = DefaultWatchHold).
	WatchHold time.Duration
	// MaxDrainBlob caps the node snapshot size relayed during POST
	// /v1/drain; a larger blob fails the drain instead of being
	// truncated (0 = DefaultMaxDrainBlob).
	MaxDrainBlob int64
}

// Server is the HTTP skin over a Controller:
//
//	POST /v1/register    NodeInfo JSON → RegisterResult
//	POST /v1/heartbeat   HeartbeatRequest JSON; 404 = re-register
//	POST /v1/deregister  DeregisterRequest JSON
//	GET  /v1/endpoints   versioned endpoint list; ?wait=V long-polls
//	                     until the version exceeds V (or WatchHold)
//	GET  /v1/fleet       full Status JSON for operators
//	POST /v1/drain?id=N  stream-preserving drain: opens N's ticket,
//	                     fetches N's pool snapshot via its /drain
//	                     endpoint and relays the blob; the resume
//	                     token rides the X-Fleet-Resume-Token header
//
// The deterministic brain stays in Controller; this layer only
// decodes, relays and runs the failure-detection ticker (Run).
type Server struct {
	ctrl       *Controller
	mux        *http.ServeMux
	nodeClient *http.Client
	drainTO    time.Duration
	watchHold  time.Duration
	maxBlob    int64
}

// NewServer wraps ctrl in its HTTP API.
func NewServer(ctrl *Controller, opts ServerOptions) *Server {
	s := &Server{
		ctrl:       ctrl,
		nodeClient: opts.NodeClient,
		drainTO:    opts.DrainTimeout,
		watchHold:  opts.WatchHold,
		maxBlob:    opts.MaxDrainBlob,
	}
	if s.nodeClient == nil {
		s.nodeClient = &http.Client{}
	}
	if s.drainTO <= 0 {
		s.drainTO = DefaultDrainTimeout
	}
	if s.watchHold <= 0 {
		s.watchHold = DefaultWatchHold
	}
	if s.maxBlob <= 0 {
		s.maxBlob = DefaultMaxDrainBlob
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.serveRegister)
	mux.HandleFunc("/v1/heartbeat", s.serveHeartbeat)
	mux.HandleFunc("/v1/deregister", s.serveDeregister)
	mux.HandleFunc("/v1/endpoints", s.serveEndpoints)
	mux.HandleFunc("/v1/fleet", s.serveFleet)
	mux.HandleFunc("/v1/drain", s.serveDrain)
	s.mux = mux
	return s
}

// Handler returns the control plane's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Run drives the failure-detection sweep on the heartbeat cadence
// until ctx is cancelled: nodes must die on schedule even when no
// request happens to arrive and trigger a sweep.
func (s *Server) Run(ctx context.Context) {
	t := time.NewTicker(s.ctrl.Config().HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.ctrl.Advance()
		}
	}
}

func postJSON[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var req T
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return req, false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) serveRegister(w http.ResponseWriter, r *http.Request) {
	info, ok := postJSON[NodeInfo](w, r)
	if !ok {
		return
	}
	res, err := s.ctrl.Register(info)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, res)
}

func (s *Server) serveHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := postJSON[HeartbeatRequest](w, r)
	if !ok {
		return
	}
	switch err := s.ctrl.Heartbeat(req.ID, req.HeartbeatReport); {
	case errors.Is(err, ErrUnknownNode):
		// 404 is the agent's re-register cue.
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, struct {
			OK bool `json:"ok"`
		}{true})
	}
}

func (s *Server) serveDeregister(w http.ResponseWriter, r *http.Request) {
	req, ok := postJSON[DeregisterRequest](w, r)
	if !ok {
		return
	}
	switch err := s.ctrl.Deregister(req.ID); {
	case errors.Is(err, ErrUnknownNode):
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		writeJSON(w, struct {
			OK bool `json:"ok"`
		}{true})
	}
}

// serveEndpoints answers the versioned endpoint list. With ?wait=V
// the request long-polls: it returns as soon as the version exceeds
// V, or after WatchHold with the unchanged list (the client simply
// re-polls — a quiet fleet costs one idle request per hold).
func (s *Server) serveEndpoints(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	var version uint64
	var eps []string
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		since, err := strconv.ParseUint(waitStr, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad wait=%q: %v", waitStr, err), http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.watchHold)
		defer cancel()
		version, eps = s.ctrl.WaitEndpoints(ctx, since)
	} else {
		version, eps = s.ctrl.Endpoints()
	}
	writeJSON(w, EndpointsResponse{Version: version, Endpoints: eps})
}

func (s *Server) serveFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.ctrl.Status())
}

// serveDrain orchestrates a stream-preserving drain end to end:
// open a drain ticket for the node (it leaves the endpoint list
// here), ask the node itself to drain in-flight draws and hand over
// its pool snapshot, and relay the blob to the caller with the
// resume token in X-Fleet-Resume-Token. The caller boots the
// replacement randd from the blob with that token; if the node-side
// snapshot or the relay fails, the drain is rolled back on BOTH sides
// (the node's latch via POST /undrain, the ticket via AbortDrain) and
// the node goes straight back into rotation — a failed drain must not
// strand capacity.
func (s *Server) serveDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing ?id=<node>", http.StatusBadRequest)
		return
	}
	url, err := s.ctrl.NodeURL(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	tk, err := s.ctrl.BeginDrain(id)
	if err != nil {
		if errors.Is(err, ErrUnknownNode) {
			http.Error(w, err.Error(), http.StatusNotFound)
		} else {
			http.Error(w, err.Error(), http.StatusConflict)
		}
		return
	}
	blob, err := s.drainNode(r.Context(), url)
	if err != nil {
		// The node may have latched its drain even though the relay
		// failed (e.g. the body read broke after the node committed).
		// Roll the latch back BEFORE re-admitting the node to the
		// endpoint list: the blob never reached a successor and the
		// ticket dies in AbortDrain, so un-draining cannot fork a
		// stream — but skipping it would leave a zombie that 503s
		// every draw while the controller keeps routing clients at
		// it. If even the rollback fails, the node's own
		// heartbeats report the latch and keep it out of endpoints.
		if uerr := s.undrainNode(url); uerr != nil {
			err = fmt.Errorf("%w (and node-side undrain failed: %v; the node reports its drain latch via heartbeats until an operator clears it)", err, uerr)
		}
		if aerr := s.ctrl.AbortDrain(tk.Token); aerr != nil {
			err = fmt.Errorf("%w (and abort failed: %v)", err, aerr)
		}
		http.Error(w, fmt.Sprintf("drain %s: %v", id, err), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Header().Set("X-Fleet-Resume-Token", tk.Token)
	w.Header().Set("X-Fleet-Drained-Node", id)
	w.Write(blob)
}

// drainNode performs the node-side half: POST {node}/drain, which
// stops new draws, waits out in-flight ones and answers with the
// pool state blob — the exact-resume checkpoint the successor boots
// from.
func (s *Server) drainNode(ctx context.Context, nodeURL string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.drainTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nodeURL+"/drain", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.nodeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("node /drain: %s: %s", resp.Status, msg)
	}
	if resp.ContentLength > s.maxBlob {
		return nil, fmt.Errorf("node /drain: snapshot is %d bytes, over the %d-byte relay cap", resp.ContentLength, s.maxBlob)
	}
	// Read one byte past the cap so an over-cap blob is a detected
	// failure (→ abort + undrain), never a silent truncation that
	// retires the node and boots the successor from corrupt state.
	blob, err := io.ReadAll(io.LimitReader(resp.Body, s.maxBlob+1))
	if err != nil {
		return nil, fmt.Errorf("node /drain body: %w", err)
	}
	if int64(len(blob)) > s.maxBlob {
		return nil, fmt.Errorf("node /drain: snapshot exceeds the %d-byte relay cap", s.maxBlob)
	}
	if len(blob) == 0 {
		return nil, errors.New("node /drain: empty snapshot")
	}
	return blob, nil
}

// undrainNode rolls a node's drain latch back after a failed relay:
// the snapshot never reached the caller and the drain ticket is being
// aborted, so the node must return to service instead of refusing
// every draw as a permanent zombie. Deliberately not bound to the
// (possibly already dead) drain request's context — the rollback must
// proceed even when the drain's caller hung up, which may be exactly
// why the relay failed.
func (s *Server) undrainNode(nodeURL string) error {
	ctx, cancel := context.WithTimeout(context.Background(), s.drainTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nodeURL+"/undrain", nil)
	if err != nil {
		return err
	}
	resp, err := s.nodeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("node /undrain: %s", resp.Status)
	}
	return nil
}
