// Command randload drives a randd fleet through the client SDK and
// reports what consumers will actually see: draw throughput, draw
// latency percentiles, shed/retry/failover counts and a corruption
// check. It is the measurement half of the serving stack — the
// paper's consumption benchmark moved onto the network.
//
//	randload -addrs http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	         -clients 8 -duration 30s
//	randload -addrs http://localhost:8080 -mode open -rate 500000
//	randload -addrs http://localhost:8080 -check -out BENCH_client.json
//	randload -control http://localhost:7070 -clients 8 -duration 30s
//
// With -control, randload takes its fleet from a randctl controller
// instead of a static -addrs list: the initial endpoints come from
// the controller and a background watch feeds every change into the
// running clients (SetEndpoints), so draws keep flowing while nodes
// join, drain and die mid-measurement — the scenario the fleet
// control plane exists for.
//
// Closed loop (default) measures capacity: every worker draws as
// fast as the ring feeds it. Open loop measures latency at a fixed
// offered rate, with each draw's latency clocked from its *intended*
// start time, so queueing delay is charged to the system under test
// rather than silently absorbed (no coordinated omission).
//
// Every drawn word is checked for the one value a healthy stack
// essentially never produces — zero. A zeroed word in the stream
// means a torn buffer or an uninitialised block escaped the client,
// and -check turns that (or zero throughput) into a non-zero exit
// for CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/bits"
	"os"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/fleet"
)

// fetchFleet asks the controller for the current endpoint list,
// waiting briefly for at least one node to be registered — randload
// is often started in the same breath as the fleet it measures.
func fetchFleet(ctx context.Context, control string) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	got := make(chan []string, 1)
	go fleet.WatchEndpoints(ctx, control, nil, func(_ uint64, eps []string) {
		if len(eps) > 0 {
			select {
			case got <- eps:
			default:
			}
			cancel()
		}
	})
	select {
	case eps := <-got:
		return eps, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("no serving endpoints appeared: %w", ctx.Err())
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addrs    = flag.String("addrs", "http://localhost:8080", "comma-separated randd base URLs (the failover fleet)")
		clients  = flag.Int("clients", 4, "concurrent client instances, one prefetch ring each")
		duration = flag.Duration("duration", 10*time.Second, "measurement length")
		mode     = flag.String("mode", "closed", "closed (draw flat out) or open (fixed offered rate)")
		rate     = flag.Float64("rate", 100000, "total offered draws/sec across all clients (open loop only)")
		block    = flag.Int("block", 0, "pin the block size to this many words (0 = adaptive)")
		stall    = flag.Duration("stall", 5*time.Second, "give up on a draw after this long with no progress (client MaxStall)")
		out      = flag.String("out", "", "write the JSON benchmark artifact here (e.g. BENCH_client.json)")
		check    = flag.Bool("check", false, "exit non-zero unless throughput is non-zero and no corrupt word was seen")
		control  = flag.String("control", "", "randctl base URL: take the fleet from this controller's endpoint watch instead of -addrs")
	)
	flag.Parse()

	endpoints := strings.Split(*addrs, ",")
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	if *control != "" {
		eps, err := fetchFleet(watchCtx, *control)
		if err != nil {
			log.Printf("randload: fetch fleet from %s: %v", *control, err)
			return 2
		}
		endpoints = eps
	}
	if *mode != "closed" && *mode != "open" {
		log.Printf("randload: -mode must be closed or open, got %q", *mode)
		return 2
	}
	if *clients < 1 {
		log.Printf("randload: -clients must be >= 1")
		return 2
	}

	workers := make([]*worker, *clients)
	for i := range workers {
		opts := client.Options{
			Endpoints: endpoints,
			MaxStall:  *stall,
			Seed:      uint64(i) + 1, // distinct deterministic jitter per client
		}
		if *block > 0 {
			opts.BlockWords = *block
			opts.MinBlockWords = *block
			opts.MaxBlockWords = *block
		}
		cl, err := client.New(opts)
		if err != nil {
			log.Printf("randload: %v", err)
			return 2
		}
		defer cl.Close()
		workers[i] = &worker{cl: cl}
	}

	if *control != "" {
		// Feed every fleet change into all running clients for the
		// rest of the run.
		go fleet.WatchEndpoints(watchCtx, *control, nil, func(version uint64, eps []string) {
			log.Printf("randload: fleet v%d: %s", version, strings.Join(eps, ","))
			for _, w := range workers {
				if err := w.cl.SetEndpoints(eps); err != nil {
					log.Printf("randload: apply fleet v%d: %v", version, err)
				}
			}
		})
	}

	log.Printf("randload: %d clients, %s loop, %v against %s", *clients, *mode, *duration, strings.Join(endpoints, ","))
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if *mode == "open" {
				w.openLoop(deadline, *rate/float64(*clients))
			} else {
				w.closedLoop(deadline)
			}
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	rep := summarize(workers, elapsed, *mode)
	rep.Endpoints = endpoints
	rep.Clients = *clients
	printReport(rep)
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Printf("randload: marshal report: %v", err)
			return 1
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Printf("randload: write %s: %v", *out, err)
			return 1
		}
		log.Printf("randload: wrote %s", *out)
	}
	if *check {
		switch {
		case rep.Draws == 0:
			log.Print("randload: CHECK FAILED: zero draws completed")
			return 1
		case rep.ZeroWords > 0:
			log.Printf("randload: CHECK FAILED: %d zero words in the stream (corruption)", rep.ZeroWords)
			return 1
		}
		log.Printf("randload: check passed: %d draws, 0 corrupt words", rep.Draws)
	}
	return 0
}

// worker is one load-generating goroutine with its own client (its
// own prefetch ring and failover state — clients do not share).
type worker struct {
	cl        *client.Client
	hist      [64]uint64 // log2-bucketed draw latencies in ns
	maxNs     int64
	draws     uint64
	errs      uint64
	zeroWords uint64
}

func (w *worker) record(lat time.Duration) {
	ns := lat.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	w.hist[bits.Len64(uint64(ns))-1]++
	if ns > w.maxNs {
		w.maxNs = ns
	}
}

func (w *worker) draw(t0 time.Time) {
	v, err := w.cl.Uint64()
	if err != nil {
		w.errs++
		return
	}
	w.record(time.Since(t0))
	w.draws++
	if v == 0 {
		w.zeroWords++
	}
}

func (w *worker) closedLoop(deadline time.Time) {
	for time.Now().Before(deadline) {
		w.draw(time.Now())
	}
}

// openLoop issues draws on a fixed schedule and measures each from
// its intended tick, not from when the loop got around to it: if the
// system stalls, the stall shows up in every queued draw's latency.
func (w *worker) openLoop(deadline time.Time, perSec float64) {
	if perSec <= 0 {
		return
	}
	period := time.Duration(float64(time.Second) / perSec)
	if period <= 0 {
		period = time.Nanosecond
	}
	next := time.Now()
	for {
		next = next.Add(period)
		if next.After(deadline) {
			return
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		w.draw(next) // intended start, not actual
	}
}

// report is the JSON benchmark artifact (BENCH_client.json).
type report struct {
	Mode       string   `json:"mode"`
	Clients    int      `json:"clients"`
	Endpoints  []string `json:"endpoints"`
	Seconds    float64  `json:"seconds"`
	Draws      uint64   `json:"draws"`
	DrawsPerS  float64  `json:"draws_per_sec"`
	Errors     uint64   `json:"errors"`
	ZeroWords  uint64   `json:"zero_words"`
	P50Ns      int64    `json:"p50_ns"`
	P90Ns      int64    `json:"p90_ns"`
	P99Ns      int64    `json:"p99_ns"`
	MaxNs      int64    `json:"max_ns"`
	Blocks     uint64   `json:"blocks"`
	Stalls     uint64   `json:"stalls"`
	Retries    uint64   `json:"retries"`
	Failovers  uint64   `json:"failovers"`
	Sheds      uint64   `json:"sheds_429"`
	Discarded  uint64   `json:"discarded_bytes"`
	EpochFlips uint64   `json:"epoch_changes"`
}

func summarize(workers []*worker, elapsed time.Duration, mode string) report {
	rep := report{Mode: mode, Seconds: elapsed.Seconds()}
	var hist [64]uint64
	for _, w := range workers {
		for i, n := range w.hist {
			hist[i] += n
		}
		if w.maxNs > rep.MaxNs {
			rep.MaxNs = w.maxNs
		}
		rep.Draws += w.draws
		rep.Errors += w.errs
		rep.ZeroWords += w.zeroWords
		st := w.cl.Stats()
		rep.Blocks += st.Blocks
		rep.Stalls += st.Stalls
		rep.Retries += st.Retries
		rep.Failovers += st.Failovers
		rep.Sheds += st.Sheds429
		rep.Discarded += st.DiscardedBytes
		rep.EpochFlips += st.EpochChanges
	}
	if rep.Seconds > 0 {
		rep.DrawsPerS = float64(rep.Draws) / rep.Seconds
	}
	rep.P50Ns = percentile(&hist, rep.Draws, 0.50)
	rep.P90Ns = percentile(&hist, rep.Draws, 0.90)
	rep.P99Ns = percentile(&hist, rep.Draws, 0.99)
	return rep
}

// percentile reads the q-quantile out of the merged log2 histogram:
// the nearest-rank sample (the ⌈q·total⌉-th smallest), placed at the
// midpoint of its 1/n slice of the bucket span. An earlier version
// truncated the rank — so P99 of exactly 100 samples read the
// maximum, one sample too deep into the tail — and interpolated from
// the bucket floor, which pinned sparse tail buckets to their lower
// bound and biased tail percentiles low by up to 2×.
func percentile(hist *[64]uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank > 0 {
		rank-- // 1-based nearest rank → 0-based sample index
	}
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for b, n := range hist {
		if n == 0 {
			continue
		}
		if seen+n > rank {
			lo := int64(1) << b // bucket b holds ns in [2^b, 2^(b+1))
			frac := (float64(rank-seen) + 0.5) / float64(n)
			return lo + int64(frac*float64(lo))
		}
		seen += n
	}
	return 0
}

func printReport(rep report) {
	fmt.Printf("randload: %s loop, %d clients, %.2fs\n", rep.Mode, rep.Clients, rep.Seconds)
	fmt.Printf("  draws      %d (%.0f/s)\n", rep.Draws, rep.DrawsPerS)
	fmt.Printf("  errors     %d   zero words %d\n", rep.Errors, rep.ZeroWords)
	fmt.Printf("  latency    p50 %v  p90 %v  p99 %v  max %v\n",
		time.Duration(rep.P50Ns), time.Duration(rep.P90Ns),
		time.Duration(rep.P99Ns), time.Duration(rep.MaxNs))
	fmt.Printf("  transport  blocks %d  stalls %d  retries %d  failovers %d\n",
		rep.Blocks, rep.Stalls, rep.Retries, rep.Failovers)
	fmt.Printf("  fleet      sheds(429) %d  discarded %dB  epoch changes %d\n",
		rep.Sheds, rep.Discarded, rep.EpochFlips)
}
