package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer stands up the controller HTTP API on a loopback
// listener over a fake-clock controller.
func newTestServer(t *testing.T, clk *fakeClock, opts ServerOptions) (*Controller, *httptest.Server) {
	t.Helper()
	c, err := NewController(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c, opts).Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func postAs[T any](t *testing.T, url string, body any) T {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, msg)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerRegisterHeartbeatEndpoints drives the full wire loop:
// register two nodes over HTTP, read the endpoint list, kill one via
// heartbeat silence, and watch the list shrink. A third node posts
// the bodies an older randd sends, with fields the controller no
// longer reads; the server decodes leniently, so it joins all the
// same.
func TestServerRegisterHeartbeatEndpoints(t *testing.T) {
	clk := newFakeClock()
	ctrl, srv := newTestServer(t, clk, ServerOptions{})

	res := postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a", URL: "http://a"})
	if res.HeartbeatInterval != time.Second {
		t.Fatalf("assigned interval %v, want 1s", res.HeartbeatInterval)
	}
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "b", URL: "http://b"})

	var er EndpointsResponse
	resp, err := http.Get(srv.URL + "/v1/endpoints")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(er.Endpoints) != 2 {
		t.Fatalf("endpoints = %v, want 2", er.Endpoints)
	}

	// b falls silent while a keeps beating; the sweep demotes b.
	clk.Advance(11 * time.Second)
	postAs[struct {
		OK bool `json:"ok"`
	}](t, srv.URL+"/v1/heartbeat", HeartbeatRequest{ID: "a", HeartbeatReport: healthyBeat(8)})
	if _, eps := ctrl.Endpoints(); len(eps) != 1 || eps[0] != "http://a" {
		t.Fatalf("after silence: endpoints = %v, want just a", eps)
	}

	// Status for operators round-trips as JSON.
	resp, err = http.Get(srv.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Nodes) != 2 {
		t.Fatalf("fleet status %+v", st)
	}

	postAs[RegisterResult](t, srv.URL+"/v1/register",
		json.RawMessage(`{"id":"c","url":"http://c","capacity_words":64000}`))
	postAs[struct {
		OK bool `json:"ok"`
	}](t, srv.URL+"/v1/heartbeat", json.RawMessage(
		`{"id":"c","shards":8,"healthy":5,"quarantined":1,"probation":1,"retired":1,"capacity_words":64000}`))
	if _, eps := ctrl.Endpoints(); len(eps) != 2 || eps[1] != "http://c" {
		t.Fatalf("older node's bodies: endpoints = %v, want a and c", eps)
	}
	if n := nodeByID(t, ctrl.Status(), "c"); n.State != "alive" || n.Healthy != 5 || n.Shards != 8 {
		t.Fatalf("older node's bodies: status %+v", n)
	}
}

// TestServerHeartbeatUnknown404: 404 is load-bearing — it is the
// agent's cue to re-register after a controller restart.
func TestServerHeartbeatUnknown404(t *testing.T) {
	clk := newFakeClock()
	_, srv := newTestServer(t, clk, ServerOptions{})
	buf, _ := json.Marshal(HeartbeatRequest{ID: "ghost", HeartbeatReport: healthyBeat(8)})
	resp, err := http.Post(srv.URL+"/v1/heartbeat", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: %s, want 404", resp.Status)
	}
}

// TestServerEndpointsLongPoll: a ?wait=V request parks until the
// version moves, then returns the fresh list.
func TestServerEndpointsLongPoll(t *testing.T) {
	clk := newFakeClock()
	ctrl, srv := newTestServer(t, clk, ServerOptions{})
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a", URL: "http://a"})
	v, _ := ctrl.Endpoints()

	got := make(chan EndpointsResponse, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/endpoints?wait=%d", srv.URL, v))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var er EndpointsResponse
		if json.NewDecoder(resp.Body).Decode(&er) == nil {
			got <- er
		}
	}()

	// Let the long-poll park, then change the fleet.
	time.Sleep(20 * time.Millisecond)
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "b", URL: "http://b"})
	select {
	case er := <-got:
		if er.Version <= v || len(er.Endpoints) != 2 {
			t.Fatalf("long-poll woke with %+v", er)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on endpoint change")
	}
}

// TestServerDrainOrchestration: POST /v1/drain freezes the node,
// pulls its snapshot blob through the node's own /drain endpoint, and
// relays blob + resume token; a successor registering with the token
// claims the ticket.
func TestServerDrainOrchestration(t *testing.T) {
	blob := []byte("pool-state-blob-0123456789")
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/drain" {
			http.NotFound(w, r)
			return
		}
		w.Write(blob)
	}))
	defer node.Close()

	clk := newFakeClock()
	ctrl, srv := newTestServer(t, clk, ServerOptions{})
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a", URL: node.URL})

	resp, err := http.Post(srv.URL+"/v1/drain?id=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("drain: %s: %s", resp.Status, msg)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("relayed blob %q, want %q", got, blob)
	}
	token := resp.Header.Get("X-Fleet-Resume-Token")
	if !strings.HasPrefix(token, "drain-a-") {
		t.Fatalf("resume token %q", token)
	}
	if resp.Header.Get("X-Fleet-Drained-Node") != "a" {
		t.Fatalf("drained-node header %q", resp.Header.Get("X-Fleet-Drained-Node"))
	}

	// The drained node left the rotation; the successor claims its
	// ticket with the token.
	if _, eps := ctrl.Endpoints(); len(eps) != 0 {
		t.Fatalf("drained node still serving: %v", eps)
	}
	res := postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a2", URL: "http://a2", ResumeToken: token})
	if res.Warning != "" {
		t.Fatalf("successor's claim warned: %+v", res)
	}
}

// TestServerDrainAbortsOnNodeFailure: a node that cannot snapshot
// must not be stranded out of rotation — the drain rolls back.
func TestServerDrainAbortsOnNodeFailure(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "snapshot failed", http.StatusInternalServerError)
	}))
	defer node.Close()

	clk := newFakeClock()
	ctrl, srv := newTestServer(t, clk, ServerOptions{})
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a", URL: node.URL})

	resp, err := http.Post(srv.URL+"/v1/drain?id=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failed drain: %s, want 502", resp.Status)
	}
	if _, eps := ctrl.Endpoints(); len(eps) != 1 {
		t.Fatalf("node not restored after failed drain: %v", eps)
	}
	if st := ctrl.Status(); len(st.Tickets) != 0 {
		t.Fatalf("ticket leaked after abort: %+v", st.Tickets)
	}
}

// TestServerDrainUnknownNode: draining a node the controller does not
// know is a clean 404, not a conflict or a hang.
func TestServerDrainUnknownNode(t *testing.T) {
	clk := newFakeClock()
	_, srv := newTestServer(t, clk, ServerOptions{})
	resp, err := http.Post(srv.URL+"/v1/drain?id=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown: %s, want 404", resp.Status)
	}
}

// TestServerMethodDiscipline: mutating endpoints refuse GET.
func TestServerMethodDiscipline(t *testing.T) {
	clk := newFakeClock()
	_, srv := newTestServer(t, clk, ServerOptions{})
	for _, path := range []string{"/v1/register", "/v1/heartbeat", "/v1/deregister", "/v1/drain"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: %s, want 405", path, resp.Status)
		}
	}
}

// drainableNode is a fake randd admin surface: /drain answers with a
// configurable (possibly broken) body and latches draining; /undrain
// clears the latch. It lets the relay-failure tests assert the
// controller rolls the node-side latch back.
type drainableNode struct {
	mu       sync.Mutex
	draining bool
	undrains int
	serve    func(w http.ResponseWriter)
}

func (d *drainableNode) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		defer d.mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/drain":
			d.draining = true
			d.serve(w)
		case r.Method == http.MethodPost && r.URL.Path == "/undrain":
			d.draining = false
			d.undrains++
			fmt.Fprintln(w, `{"draining":false}`)
		default:
			http.NotFound(w, r)
		}
	})
}

func (d *drainableNode) state() (draining bool, undrains int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining, d.undrains
}

// TestServerDrainRelayFailureRollsBackNodeLatch: when the node
// commits its drain but the controller-side relay fails (body read
// error after 200), the controller must clear the node's latch via
// /undrain BEFORE re-admitting it — otherwise the fleet routes
// clients at a node that 503s every draw forever.
func TestServerDrainRelayFailureRollsBackNodeLatch(t *testing.T) {
	dn := &drainableNode{serve: func(w http.ResponseWriter) {
		// Declare more body than we send: the handler's short write
		// makes net/http sever the connection, so the controller's
		// read fails after the node already latched.
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("short"))
	}}
	node := httptest.NewServer(dn.handler())
	defer node.Close()

	clk := newFakeClock()
	ctrl, srv := newTestServer(t, clk, ServerOptions{})
	postAs[RegisterResult](t, srv.URL+"/v1/register",
		NodeInfo{ID: "a", URL: node.URL})

	resp, err := http.Post(srv.URL+"/v1/drain?id=a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("failed relay: %s, want 502", resp.Status)
	}
	if draining, undrains := dn.state(); draining || undrains != 1 {
		t.Fatalf("node latch after failed relay: draining=%v undrains=%d, want undrained exactly once", draining, undrains)
	}
	if _, eps := ctrl.Endpoints(); len(eps) != 1 {
		t.Fatalf("node not restored after failed relay: %v", eps)
	}
	if st := ctrl.Status(); len(st.Tickets) != 0 {
		t.Fatalf("ticket leaked: %+v", st.Tickets)
	}
}

// TestServerDrainOversizeBlobFailsLoudly: a snapshot over the relay
// cap must FAIL the drain (abort + node-side undrain), never be
// silently truncated — a truncated blob would retire the node and
// boot the successor from corrupt state. Both detection paths are
// exercised: a declared Content-Length over the cap, and a chunked
// body that only reveals its size while being read.
func TestServerDrainOversizeBlobFailsLoudly(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 32)
	for name, serve := range map[string]func(w http.ResponseWriter){
		"declared": func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "32")
			w.Write(big)
		},
		"chunked": func(w http.ResponseWriter) {
			w.Write(big[:16])
			w.(http.Flusher).Flush()
			w.Write(big[16:])
		},
	} {
		t.Run(name, func(t *testing.T) {
			dn := &drainableNode{serve: serve}
			node := httptest.NewServer(dn.handler())
			defer node.Close()

			clk := newFakeClock()
			ctrl, srv := newTestServer(t, clk, ServerOptions{MaxDrainBlob: 16})
			postAs[RegisterResult](t, srv.URL+"/v1/register",
				NodeInfo{ID: "a", URL: node.URL})

			resp, err := http.Post(srv.URL+"/v1/drain?id=a", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(msg), "relay cap") {
				t.Fatalf("oversize drain: %s %q, want 502 about the relay cap", resp.Status, msg)
			}
			if draining, undrains := dn.state(); draining || undrains != 1 {
				t.Fatalf("node latch after oversize drain: draining=%v undrains=%d", draining, undrains)
			}
			if _, eps := ctrl.Endpoints(); len(eps) != 1 {
				t.Fatalf("node not restored: %v", eps)
			}
		})
	}
}
