// Command randctl is the fleet control plane for randd: nodes
// register and heartbeat against it, it detects failures by missed
// heartbeats (alive → suspect → dead, mirroring the pool's shard
// health machine), publishes the alive nodes as a versioned endpoint
// list, and orchestrates stream-preserving drains through the
// exact-resume snapshot path.
//
// Serve mode (the default) runs the controller:
//
//	randctl -addr :7070
//
// The same binary doubles as the operator CLI against a running
// controller:
//
//	randctl -control http://localhost:7070 -status
//	randctl -control http://localhost:7070 -endpoints
//	randctl -control http://localhost:7070 -endpoints -watch
//	randctl -control http://localhost:7070 -drain node-1 -o node-1.state
//
// A drain opens a ticket for the node under a resume token, pulls
// the node's pool snapshot (the node stops serving permanently — one
// more word there would fork the streams), and writes blob plus token
// so a successor can take over bitwise:
//
//	randd -addr :8081 -state node-1.state \
//	    -control http://localhost:7070 -node-id node-1b \
//	    -resume-token $(cat node-1.state.token)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", ":7070", "serve mode: controller listen address")
		heartbeat = flag.Duration("heartbeat", 0, "serve mode: heartbeat interval assigned to nodes (0 = default 2s)")
		suspectAf = flag.Duration("suspect-after", 0, "serve mode: silence before a node turns suspect (0 = 3x heartbeat)")
		deadAfter = flag.Duration("dead-after", 0, "serve mode: silence before a suspect node is declared dead (0 = 10x heartbeat)")

		control = flag.String("control", "", "client mode: base URL of a running randctl (enables -status/-endpoints/-drain)")
		status  = flag.Bool("status", false, "client mode: print the fleet status JSON")
		endpts  = flag.Bool("endpoints", false, "client mode: print the live endpoint list")
		watch   = flag.Bool("watch", false, "client mode: with -endpoints, long-poll and print every change")
		drainID = flag.String("drain", "", "client mode: drain this node stream-preservingly")
		out     = flag.String("o", "", "client mode: with -drain, write the pool blob here and the resume token to <file>.token (default stdout, token to stderr)")
		timeout = flag.Duration("timeout", time.Minute, "client mode: per-request timeout (watch requests are exempt)")
	)
	flag.Parse()

	if *control != "" {
		return runClient(*control, clientFlags{
			status: *status, endpoints: *endpts, watch: *watch,
			drainID: *drainID, out: *out, timeout: *timeout,
		})
	}

	ctrl, err := fleet.NewController(fleet.Config{
		HeartbeatInterval: *heartbeat,
		SuspectAfter:      *suspectAf,
		DeadAfter:         *deadAfter,
		Clock:             time.Now,
	})
	if err != nil {
		log.Printf("randctl: %v", err)
		return 1
	}
	srv := fleet.NewServer(ctrl, fleet.ServerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Run(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	httpErr := make(chan error, 1)
	go func() {
		cfg := ctrl.Config()
		log.Printf("randctl: controller on %s (heartbeat %v, suspect %v, dead %v)",
			*addr, cfg.HeartbeatInterval, cfg.SuspectAfter, cfg.DeadAfter)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-httpErr:
		log.Printf("randctl: %v", err)
		return 1
	case <-sig:
	}
	log.Print("randctl: shutting down")
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	httpSrv.Shutdown(sctx)
	return 0
}

type clientFlags struct {
	status, endpoints, watch bool
	drainID, out             string
	timeout                  time.Duration
}

func runClient(control string, f clientFlags) int {
	switch {
	case f.status:
		return printJSON(control+"/v1/fleet", f.timeout)
	case f.endpoints && f.watch:
		return watchEndpoints(control)
	case f.endpoints:
		return printJSON(control+"/v1/endpoints", f.timeout)
	case f.drainID != "":
		return drainNode(control, f.drainID, f.out, f.timeout)
	default:
		log.Print("randctl: -control needs one of -status, -endpoints or -drain")
		return 2
	}
}

// printJSON fetches a controller endpoint and pretty-prints the body.
func printJSON(url string, timeout time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		log.Printf("randctl: %v", err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("randctl: %v", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Printf("randctl: %s: %s: %s", url, resp.Status, body)
		return 1
	}
	var pretty map[string]any
	if json.Unmarshal(body, &pretty) == nil {
		if out, err := json.MarshalIndent(pretty, "", "  "); err == nil {
			fmt.Println(string(out))
			return 0
		}
	}
	os.Stdout.Write(body)
	return 0
}

// watchEndpoints long-polls the endpoint list forever, printing each
// version as one JSON line — the shell-scripting face of the same
// watch the SDK consumes through client.SetEndpoints.
func watchEndpoints(control string) int {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	enc := json.NewEncoder(os.Stdout)
	fleet.WatchEndpoints(ctx, control, nil, func(version uint64, endpoints []string) {
		enc.Encode(fleet.EndpointsResponse{Version: version, Endpoints: endpoints})
	})
	return 0
}

// drainNode runs the stream-preserving drain and lands blob + token
// where a successor's boot can pick them up.
func drainNode(control, id, out string, timeout time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, control+"/v1/drain?id="+id, nil)
	if err != nil {
		log.Printf("randctl: %v", err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("randctl: drain %s: %v", id, err)
		return 1
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Printf("randctl: drain %s: %s: %s", id, resp.Status, blob)
		return 1
	}
	token := resp.Header.Get("X-Fleet-Resume-Token")
	if out == "" {
		os.Stdout.Write(blob)
		fmt.Fprintf(os.Stderr, "randctl: drained %s: %d bytes, resume token %s\n", id, len(blob), token)
		return 0
	}
	if err := os.WriteFile(out, blob, 0o600); err != nil {
		log.Printf("randctl: write %s: %v", out, err)
		return 1
	}
	if err := os.WriteFile(out+".token", []byte(token+"\n"), 0o600); err != nil {
		log.Printf("randctl: write %s.token: %v", out, err)
		return 1
	}
	log.Printf("randctl: drained %s: %d bytes to %s, resume token %s (also in %s.token)",
		id, len(blob), out, token, out)
	return 0
}
