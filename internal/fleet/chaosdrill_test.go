package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hybridprng "repro"
	"repro/client"
	"repro/internal/fleet"
	"repro/internal/server"
)

// This file is the fleet's acceptance drill: a real controller, real
// randd-shaped nodes and a real SDK client on loopback, driven
// through a seeded node kill and a stream-preserving drain. It runs
// under the CI chaos job (-run Chaos -race -count=3), so everything
// here must be repeatable and race-clean.

// drillSeeds pins each node's pool seed so the continuity check can
// rebuild a reference stream for any node lineage.
var drillSeeds = []uint64{101, 102, 103}

func drillPoolOpts(seed uint64) []hybridprng.Option {
	return []hybridprng.Option{
		hybridprng.WithSeed(seed),
		hybridprng.WithShards(2),
		hybridprng.WithShardBuffer(64),
		hybridprng.WithHealthMonitoring(4),
	}
}

// recordedReq is one /bytes draw as the recorder saw it: the
// requested size and the bytes actually written.
type recordedReq struct {
	n    int
	body []byte
}

// recorder tees every successful /bytes response a node serves, in
// the order the node drew them. A response takes its slot at its
// first body Write, not at handler exit: the drawer sends its next
// request once it has read the full body, which can be before the
// previous handler returns, so exit order is not draw order. A
// handler fills its first chunk before its first Write, and the
// drawer sends its next request only after the previous response's
// last Write, so first-Write order is the node's draw order.
type recorder struct {
	next http.Handler
	mu   sync.Mutex
	reqs []recordedReq // guarded by mu
}

func (rc *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/bytes" {
		rc.next.ServeHTTP(w, r)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	rc.next.ServeHTTP(&teeWriter{ResponseWriter: w, rc: rc, n: n, slot: -1}, r)
}

// recorded returns a deep copy of the recording, safe to read while
// a straggling handler is still writing.
func (rc *recorder) recorded() []recordedReq {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]recordedReq, len(rc.reqs))
	for i, req := range rc.reqs {
		out[i] = recordedReq{n: req.n, body: append([]byte(nil), req.body...)}
	}
	return out
}

// teeWriter copies a successful response's body into its recorder
// slot, taking the slot at the first Write.
type teeWriter struct {
	http.ResponseWriter
	rc     *recorder
	n      int
	slot   int // index into rc.reqs; -1 until the first body Write
	status int
}

func (t *teeWriter) WriteHeader(code int) {
	t.status = code
	t.ResponseWriter.WriteHeader(code)
}

func (t *teeWriter) Write(p []byte) (int, error) {
	if t.status == 0 || t.status == http.StatusOK {
		t.rc.mu.Lock()
		if t.slot < 0 {
			t.slot = len(t.rc.reqs)
			t.rc.reqs = append(t.rc.reqs, recordedReq{n: t.n})
		}
		t.rc.reqs[t.slot].body = append(t.rc.reqs[t.slot].body, p...)
		t.rc.mu.Unlock()
	}
	return t.ResponseWriter.Write(p)
}

// drillNode is one randd-shaped member of the test fleet.
type drillNode struct {
	id   string
	pool *hybridprng.Pool
	srv  *server.Server
	ht   *httptest.Server
	rec  *recorder
	stop context.CancelFunc
}

// startDrillNode boots a node (fresh from seed, or resumed from blob
// when non-nil) and runs its fleet agent against the controller.
func startDrillNode(t *testing.T, controller, id string, seed uint64, blob []byte, token string) *drillNode {
	t.Helper()
	var pool *hybridprng.Pool
	if blob != nil {
		pool = new(hybridprng.Pool)
		if err := pool.UnmarshalBinary(blob); err != nil {
			t.Fatalf("node %s: restore: %v", id, err)
		}
	} else {
		p, err := hybridprng.NewPool(drillPoolOpts(seed)...)
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		pool = p
	}
	srv, err := server.New(pool, server.Options{})
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	rec := &recorder{next: srv.Handler()}
	ht := httptest.NewServer(rec)
	agent, err := fleet.NewAgent(fleet.AgentOptions{
		Controller: controller,
		Node:       fleet.NodeInfo{ID: id, URL: ht.URL, ResumeToken: token},
		Report: func() fleet.HeartbeatReport {
			st := pool.Stats()
			return fleet.HeartbeatReport{Shards: st.Shards, Healthy: st.Healthy}
		},
		RetryWait: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("node %s: %v", id, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go agent.Run(ctx)
	n := &drillNode{id: id, pool: pool, srv: srv, ht: ht, rec: rec, stop: cancel}
	t.Cleanup(func() { n.stop(); n.ht.Close() })
	return n
}

// waitEndpoints polls the controller until cond holds on the live
// endpoint list.
func waitEndpoints(t *testing.T, ctrl *fleet.Controller, what string, cond func([]string) bool) []string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, eps := ctrl.Endpoints()
		if cond(eps) {
			return eps
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoints never reached %q: %v", what, eps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetChaosKillAndDrainContinuity is the control plane's
// acceptance bar. A three-node fleet serves a continuously drawing
// client whose endpoint list is fed live from the controller's watch.
// A seeded chaos schedule kills one node mid-stream (SIGKILL
// semantics: no drain, no deregistration); the controller must detect
// it by missed heartbeats and steer the client off it with zero
// failed draws. Then a survivor is drained through the controller:
// its frozen streams move to a successor booted from the drain blob,
// and the bytes the pair served — recorded request by request on the
// wire — must be bitwise identical to one uninterrupted reference
// pool serving the same request sizes.
func TestFleetChaosKillAndDrainContinuity(t *testing.T) {
	ctrl, err := fleet.NewController(fleet.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectAfter:      100 * time.Millisecond,
		DeadAfter:         300 * time.Millisecond,
		Clock:             time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := fleet.NewServer(ctrl, fleet.ServerOptions{WatchHold: 200 * time.Millisecond})
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	go fsrv.Run(runCtx)
	cht := httptest.NewServer(fsrv.Handler())
	defer cht.Close()

	nodes := make([]*drillNode, len(drillSeeds))
	for i, seed := range drillSeeds {
		nodes[i] = startDrillNode(t, cht.URL, fmt.Sprintf("n%d", i+1), seed, nil, "")
	}
	waitEndpoints(t, ctrl, "all three serving", func(eps []string) bool { return len(eps) == 3 })

	// The seeded schedule picks the victim — same seed, same drill.
	sched, err := newFleetSchedule(fleetConfig{
		Seed: 0xD1CE, Nodes: len(nodes),
		Kinds: []fleetEventKind{nodeKill}, MaxKills: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for _, ev := range sched.Events() {
		if ev.Kind == nodeKill {
			victim = ev.Node
			break
		}
	}
	if victim < 0 {
		t.Fatalf("schedule scripted no kill:\n%s", sched)
	}
	t.Logf("chaos schedule targets node %d:\n%s", victim, sched)

	_, eps := ctrl.Endpoints()
	cl, err := client.New(client.Options{
		Endpoints:   eps,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		MaxStall:    20 * time.Second,
		// Pin the block size small so every node — including the
		// drain successor — serves several requests during the drill.
		BlockWords:    2048,
		MinBlockWords: 2048,
		MaxBlockWords: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go fleet.WatchEndpoints(watchCtx, cht.URL, nil, func(_ uint64, eps []string) {
		cl.SetEndpoints(eps)
	})

	// The single sequential drawer: zero failed draws is the bar, and
	// one drawer keeps each node's request stream serialised for the
	// continuity check.
	var draws, zeroWords atomic.Uint64
	drawErr := make(chan error, 1)
	stopDraw := make(chan struct{})
	drawerDone := make(chan struct{})
	go func() {
		defer close(drawerDone)
		for {
			select {
			case <-stopDraw:
				return
			default:
			}
			v, err := cl.Uint64()
			if err != nil {
				drawErr <- err
				return
			}
			if v == 0 {
				zeroWords.Add(1)
			}
			draws.Add(1)
		}
	}()
	drawUntil := func(target uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for draws.Load() < target {
			select {
			case err := <-drawErr:
				t.Fatalf("client draw failed during %s: %v", what, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("drawer stalled during %s at %d draws", what, draws.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	drawUntil(10_000, "steady state")

	// SIGKILL semantics: connections torn down, heartbeats stop, no
	// goodbye. The controller must notice on its own.
	killed := nodes[victim]
	killed.stop()
	killed.ht.CloseClientConnections()
	killed.ht.Close()
	marker := draws.Load()
	waitEndpoints(t, ctrl, "kill detected", func(eps []string) bool {
		if len(eps) != 2 {
			return false
		}
		for _, ep := range eps {
			if ep == killed.ht.URL {
				return false
			}
		}
		return true
	})
	drawUntil(marker+10_000, "post-kill serving")

	// Drain the lowest-numbered survivor through the controller and
	// boot its successor from the blob.
	var drainee *drillNode
	for _, n := range nodes {
		if n != killed {
			drainee = n
			break
		}
	}
	resp, err := http.Post(cht.URL+"/v1/drain?id="+drainee.id, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drain %s: status %d err %v: %s", drainee.id, resp.StatusCode, err, blob)
	}
	token := resp.Header.Get("X-Fleet-Resume-Token")
	successor := startDrillNode(t, cht.URL, drainee.id+"-successor", 0, blob, token)
	waitEndpoints(t, ctrl, "successor serving", func(eps []string) bool {
		for _, ep := range eps {
			if ep == successor.ht.URL {
				return true
			}
		}
		return false
	})
	marker = draws.Load()
	drawUntil(marker+10_000, "post-drain serving")

	// The drained node's agent is deliberately still running and
	// heartbeating a healthy pool report. It must stay retired: one
	// request routed back to it would fork the successor's streams.
	if _, eps := ctrl.Endpoints(); len(eps) != 2 {
		t.Fatalf("want 2 endpoints (survivor + successor), got %v", eps)
	} else {
		for _, ep := range eps {
			if ep == drainee.ht.URL {
				t.Fatalf("drained node crept back into endpoints: %v", eps)
			}
		}
	}

	close(stopDraw)
	<-drawerDone
	select {
	case err := <-drawErr:
		t.Fatalf("client draw failed: %v", err)
	default:
	}
	cl.Close() // no more fetches; recordings are final
	if zeroWords.Load() > 0 {
		t.Fatalf("%d zero words drawn — corruption in the stream", zeroWords.Load())
	}
	t.Logf("%d draws, zero failures, across a kill and a drain", draws.Load())

	// Bitwise continuity: everything the drained node and its
	// successor served, concatenated, must equal a reference pool
	// (same options, same seed) serving the same request sizes. Only
	// the lineage's final response may be cut short (the client was
	// mid-read when the run ended); anything else is a fork.
	fromSuccessor := successor.rec.recorded()
	if len(fromSuccessor) == 0 {
		t.Fatal("successor served nothing after the drain; the handoff was never exercised")
	}
	lineage := append(drainee.rec.recorded(), fromSuccessor...)
	refPool, err := hybridprng.NewPool(drillPoolOpts(drillSeeds[indexOf(t, nodes, drainee)])...)
	if err != nil {
		t.Fatal(err)
	}
	refSrv, err := server.New(refPool, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refHT := httptest.NewServer(refSrv.Handler())
	defer refHT.Close()
	for i, req := range lineage {
		refResp, err := http.Get(refHT.URL + "/bytes?n=" + strconv.Itoa(req.n))
		if err != nil {
			t.Fatal(err)
		}
		refBody, err := io.ReadAll(refResp.Body)
		refResp.Body.Close()
		if err != nil || refResp.StatusCode != http.StatusOK {
			t.Fatalf("reference draw %d: status %d err %v", i, refResp.StatusCode, err)
		}
		if len(req.body) < len(refBody) && i != len(lineage)-1 {
			t.Fatalf("request %d/%d of the lineage is truncated (%d of %d bytes) before the final response",
				i+1, len(lineage), len(req.body), len(refBody))
		}
		if len(req.body) > len(refBody) || !bytes.Equal(req.body, refBody[:len(req.body)]) {
			t.Fatalf("request %d/%d (n=%d): drained lineage diverges from the uninterrupted reference",
				i+1, len(lineage), req.n)
		}
	}
	t.Logf("lineage of %d responses bitwise identical to the uninterrupted reference", len(lineage))
}

func indexOf(t *testing.T, nodes []*drillNode, n *drillNode) int {
	t.Helper()
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	t.Fatal("node not in fleet")
	return -1
}
