// Command randd serves on-demand randomness from a sharded pool of
// expander walkers over HTTP — the paper's "any thread asks for the
// next number at any time" property exposed as a network service.
//
//	randd -addr :8080 -shards 16 -hmin 4
//	curl 'localhost:8080/u64?n=4'
//	curl -s 'localhost:8080/bytes?n=1048576' | wc -c
//	curl -s 'localhost:8080/stream' | head -c 80 | xxd
//	curl -i 'localhost:8080/healthz'
//	curl -s 'localhost:8080/metrics'
//
// With -state, randd is exactly resumable: it checkpoints the whole
// pool (every shard's walker, feed, health monitor, ring residue and
// recovery state) to the given file on shutdown and on demand, and
// restores from it on boot, continuing every stream bit-for-bit:
//
//	randd -addr :8080 -seeded -seed 42 -state /var/lib/randd/state
//	curl -X POST localhost:8080/snapshot    # checkpoint now
//	kill -TERM $(pidof randd)               # drain, snapshot, exit
//	randd -addr :8080 -state /var/lib/randd/state   # resume exactly
//
// On SIGTERM/SIGINT the server first drains in-flight requests (for
// up to -drain-timeout), then writes the snapshot, so the state file
// always sits at a request boundary. A failed shutdown snapshot is a
// data-loss event for a resumable deployment, so it is logged loudly
// and randd exits non-zero. When the state file exists at boot the
// generator flags (-shards, -buffer, -feed, -seed, -walk, -hmin) are
// ignored — the snapshot already pins all of them.
//
// With -substream-max > 0 (the default), randd also serves per-tenant
// streams: GET /v1/stream/{key}/u64 and /bytes draw from a walker
// derived from the key — reproducible per tenant, independent across
// tenants — with at most -substream-max walkers resident (LRU; evicted
// tenants park their exact state and resume bitwise). -tenant-rate
// caps each tenant's draw rate in words/s via a token bucket (429 +
// Retry-After past the budget; 0 = unmetered). Tenant streams ride
// along in -state snapshots and drain handoffs, so they resume exactly
// like the pool's. The derivation root comes from -seed when -seeded,
// OS entropy otherwise; a restored state file pins it.
//
// The -chaos flag wraps every shard's feed in a deterministic fault
// injector (internal/chaos) for recovery drills: shards trip,
// quarantine, reseed and recover while the daemon keeps serving.
// Chaos runs are a development tool and refuse to combine with
// -state — fault schedules do not belong in production snapshots.
//
// With -control, randd joins a randctl fleet: it registers under
// -node-id, advertises -advertise (or a URL derived from -addr), and
// heartbeats its live pool health so the controller can detect
// failures and keep the endpoint list current. A successor taking
// over a drained node's streams passes the drain's -resume-token,
// which closes the drain ticket and retires the drained node. On
// SIGTERM a fleet member deregisters *before* draining — clients are
// steered away while the node can still answer — and a failed
// deregistration makes the exit non-zero, same as a failed final
// snapshot: both mean the fleet's view of this node is now wrong. A
// node drained through POST /drain skips the shutdown snapshot — its
// state went to the successor, and a second copy that could be
// resumed would fork the streams.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hybridprng "repro"
	"repro/internal/bitsource"
	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/substream"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		shards     = flag.Int("shards", 0, "shard count, rounded up to a power of two (0 = next power of two ≥ max(GOMAXPROCS, 16), a full batched-kernel sweep)")
		buffer     = flag.Int("buffer", 0, "per-shard ring buffer in words (0 = default)")
		feed       = flag.String("feed", hybridprng.FeedGlibc, "feed generator: glibc, ansic or splitmix")
		seed       = flag.Uint64("seed", 0, "fixed feed seed (only with -seeded; default: OS entropy)")
		seeded     = flag.Bool("seeded", false, "use -seed instead of OS entropy (reproducible streams)")
		walk       = flag.Int("walk", 0, "expander steps per number (0 = the paper's 64)")
		hmin       = flag.Float64("hmin", 4, "claimed feed min-entropy bits/byte for SP 800-90B health monitoring, from the floor 30/(2^20-1) ≈ 2.861e-5 to 8; 0 disables")
		maxWords   = flag.Uint64("max-request", 0, "per-request cap for /u64 and /bytes in words (0 = default)")
		inFlight   = flag.Int("max-inflight", 0, "concurrent draw requests before shedding with 429 (0 = default, negative disables)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline for /u64 and /bytes (0 = default, negative disables)")
		streamWT   = flag.Duration("stream-write-timeout", 0, "per-chunk idle-write deadline on every draw route; a client that stops reading this long is disconnected (0 = default, negative disables)")
		drain      = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests before snapshotting")
		state      = flag.String("state", "", "checkpoint file: restored on boot when present, written on shutdown and by POST /snapshot (empty disables)")
		chaosSeed  = flag.Uint64("chaos", 0, "enable the deterministic fault injector with this schedule seed (dev only; incompatible with -state)")
		chaosKinds = flag.String("chaos-kinds", "all", "comma-separated chaos fault kinds: stuck, bias, burst, stall (with -chaos)")
		subMax     = flag.Int("substream-max", 1024, "resident per-tenant walker cap for /v1/stream/{key} (LRU past the cap; 0 disables the per-tenant routes)")
		tenantRate = flag.Float64("tenant-rate", 0, "per-tenant draw budget in words/s, enforced with 429 + Retry-After (0 = unmetered; with -substream-max)")
		control    = flag.String("control", "", "randctl base URL: register with this fleet controller and heartbeat pool health (empty = standalone)")
		nodeID     = flag.String("node-id", "", "fleet node ID (with -control; default: the hostname)")
		advertise  = flag.String("advertise", "", "base URL other hosts reach this node at (with -control; default derived from -addr)")
		resumeTok  = flag.String("resume-token", "", "drain ticket token when this node is the successor resuming a drained node's streams (with -control)")
	)
	flag.Parse()

	if *chaosSeed != 0 && *state != "" {
		log.Print("randd: -chaos and -state are incompatible: fault schedules are not checkpointable and must never land in a production snapshot")
		return 2
	}

	pool, regBlob, restored, err := buildPool(poolFlags{
		state: *state, shards: *shards, buffer: *buffer, feed: *feed,
		seed: *seed, seeded: *seeded, walk: *walk, hmin: *hmin,
		chaosSeed: *chaosSeed, chaosKinds: *chaosKinds,
	})
	if err != nil {
		log.Printf("randd: %v", err)
		return 1
	}
	reg, err := buildRegistry(regBlob, *subMax, *tenantRate, *feed, *walk, *hmin, *seed, *seeded)
	if err != nil {
		log.Printf("randd: %v", err)
		return 1
	}
	srv, err := server.New(pool, server.Options{
		MaxWords:           *maxWords,
		StatePath:          *state,
		MaxInFlight:        *inFlight,
		RequestTimeout:     *reqTimeout,
		StreamWriteTimeout: *streamWT,
		Substreams:         reg,
	})
	if err != nil {
		log.Printf("randd: %v", err)
		return 1
	}
	expvar.Publish("randd", srv.MetricsVar())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Catch SIGTERM before serving starts: a signal that lands between
	// the first accepted request and a later Notify would take the
	// default action and kill randd without its shutdown snapshot.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	httpErr := make(chan error, 1)
	go func() {
		switch {
		case restored:
			log.Printf("randd: serving %d shards on %s (resumed from %s)",
				pool.Shards(), *addr, *state)
		case *chaosSeed != 0:
			log.Printf("randd: serving %d shards on %s (feed %s, health hMin %g, CHAOS seed %d kinds %s)",
				pool.Shards(), *addr, *feed, *hmin, *chaosSeed, *chaosKinds)
		default:
			log.Printf("randd: serving %d shards on %s (feed %s, health hMin %g)",
				pool.Shards(), *addr, *feed, *hmin)
		}
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
	}()

	// Fleet membership: register and heartbeat in the background so a
	// slow or absent controller never delays serving.
	var agent *fleet.Agent
	agentCtx, agentCancel := context.WithCancel(context.Background())
	defer agentCancel()
	if *control != "" {
		id := *nodeID
		if id == "" {
			host, err := os.Hostname()
			if err != nil {
				log.Printf("randd: -control without -node-id and no hostname: %v", err)
				return 2
			}
			id = host
		}
		adv := *advertise
		if adv == "" {
			adv = advertiseFromAddr(*addr)
		}
		agent, err = fleet.NewAgent(fleet.AgentOptions{
			Controller: *control,
			Node:       fleet.NodeInfo{ID: id, URL: adv, ResumeToken: *resumeTok},
			Report: func() fleet.HeartbeatReport {
				st := pool.Stats()
				return fleet.HeartbeatReport{
					Shards:  st.Shards,
					Healthy: st.Healthy,
					// The drain latch rides every heartbeat so the
					// controller can spot a drained zombie (latched
					// node still in rotation after a failed rollback)
					// and keep clients away from it.
					Draining: srv.Draining(),
				}
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Printf("randd: %v", err)
			return 2
		}
		go agent.Run(agentCtx)
	}

	select {
	case err := <-httpErr:
		log.Printf("randd: %v", err)
		return 1
	case <-sig:
	}
	fmt.Fprintln(os.Stderr, "randd: shutting down")
	exit := 0
	// Deregister first, while this node can still answer the draws
	// already heading its way: the controller drops it from the
	// endpoint list and clients steer to siblings before we stop
	// accepting. A failed deregistration means the fleet keeps routing
	// at a corpse until the heartbeat timeout — loud log, failed exit.
	if agent != nil {
		agentCancel() // stop heartbeating before we announce departure
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := agent.Deregister(dctx); err != nil {
			log.Printf("randd: FLEET DEREGISTRATION FAILED, controller may still route here: %v", err)
			exit = 1
		} else {
			log.Print("randd: deregistered from fleet")
		}
		dcancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain second, snapshot third: once Shutdown returns no request
	// is mid-flight, so the checkpoint lands exactly at a request
	// boundary and a resumed instance continues the streams
	// bit-for-bit.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("randd: shutdown: %v", err)
	}
	switch {
	case *state != "" && srv.Draining():
		// This node's streams were handed to a successor via POST
		// /drain; a resumable second copy of the state would fork them.
		log.Printf("randd: drained to a successor, skipping final snapshot to %s", *state)
	case *state != "":
		n, err := srv.Snapshot()
		if err != nil {
			// A lost shutdown snapshot means the next boot replays from
			// the previous checkpoint (or starts fresh): the operator
			// must know, and supervisors must see a failed exit.
			log.Printf("randd: FINAL SNAPSHOT FAILED, state at %s is stale or missing: %v", *state, err)
			return 1
		}
		log.Printf("randd: final snapshot: %d bytes to %s", n, *state)
	}
	return exit
}

// advertiseFromAddr derives a reachable base URL from the listen
// address: ":8080" advertises the hostname, an explicit host is kept.
func advertiseFromAddr(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		if h, err := os.Hostname(); err == nil {
			host = h
		} else {
			host = "localhost"
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}

type poolFlags struct {
	state      string
	shards     int
	buffer     int
	feed       string
	seed       uint64
	seeded     bool
	walk       int
	hmin       float64
	chaosSeed  uint64
	chaosKinds string
}

// buildPool restores the pool (and, for substream-enabled snapshots,
// the registry blob riding in the node state container) from the
// state file when it exists, otherwise constructs a fresh pool from
// the generator flags.
func buildPool(f poolFlags) (*hybridprng.Pool, []byte, bool, error) {
	if f.state != "" {
		blob, err := os.ReadFile(f.state)
		switch {
		case err == nil:
			poolBlob, regBlob, err := server.DecodeNodeState(blob)
			if err != nil {
				return nil, nil, false, fmt.Errorf("restore %s: %w", f.state, err)
			}
			pool := new(hybridprng.Pool)
			if err := pool.UnmarshalBinary(poolBlob); err != nil {
				return nil, nil, false, fmt.Errorf("restore %s: %w", f.state, err)
			}
			log.Printf("randd: restored %d shards from %s (%d bytes); generator flags ignored", pool.Shards(), f.state, len(blob))
			return pool, regBlob, true, nil
		case os.IsNotExist(err):
			log.Printf("randd: no state file at %s, starting fresh", f.state)
		default:
			return nil, nil, false, fmt.Errorf("read %s: %w", f.state, err)
		}
	}
	opts := []hybridprng.Option{hybridprng.WithFeed(f.feed)}
	if f.shards > 0 {
		opts = append(opts, hybridprng.WithShards(f.shards))
	}
	if f.buffer > 0 {
		opts = append(opts, hybridprng.WithShardBuffer(f.buffer))
	}
	if f.seeded {
		opts = append(opts, hybridprng.WithSeed(f.seed))
	}
	if f.walk > 0 {
		opts = append(opts, hybridprng.WithWalkLength(f.walk))
	}
	if f.hmin > 0 {
		opts = append(opts, hybridprng.WithHealthMonitoring(f.hmin))
	}
	if f.chaosSeed != 0 {
		kinds, err := chaos.ParseKinds(f.chaosKinds)
		if err != nil {
			return nil, nil, false, err
		}
		opts = append(opts, hybridprng.WithFeedWrapper(chaos.Wrapper(chaos.Config{
			Seed:  f.chaosSeed,
			Kinds: kinds,
		})))
	}
	pool, err := hybridprng.NewPool(opts...)
	if err != nil {
		return nil, nil, false, err
	}
	return pool, nil, false, nil
}

// buildRegistry assembles the per-tenant substream registry: restored
// from the snapshot's registry blob when one rode along, otherwise
// fresh with a root seed from -seed (when -seeded) or OS entropy. The
// runtime knobs (-substream-max, -tenant-rate) always come from the
// flags — they shape this node's serving, not the streams themselves.
func buildRegistry(regBlob []byte, subMax int, tenantRate float64, feed string, walk int, hmin float64, seed uint64, seeded bool) (*substream.Registry, error) {
	if subMax <= 0 {
		if regBlob != nil {
			// The snapshot carries tenant streams this boot refuses to
			// serve; dropping them silently would strand every tenant's
			// reproducibility, so refuse loudly instead.
			return nil, fmt.Errorf("state file carries substream state but -substream-max is 0; re-enable substreams or move the state file aside")
		}
		return nil, nil
	}
	cfg := substream.Config{
		MaxResident: subMax,
		RatePerSec:  tenantRate,
	}
	if regBlob != nil {
		reg, err := substream.Restore(regBlob, cfg)
		if err != nil {
			return nil, fmt.Errorf("restore substream registry: %w", err)
		}
		s := reg.Stats()
		log.Printf("randd: restored %d tenant streams", s.Tenants)
		return reg, nil
	}
	cfg.Feed = feed
	cfg.WalkLen = walk
	cfg.HealthHMin = hmin
	if seeded {
		cfg.RootSeed = seed
	} else {
		cfg.RootSeed = bitsource.CryptoSeed()
	}
	reg, err := substream.New(cfg)
	if err != nil {
		return nil, err
	}
	return reg, nil
}
