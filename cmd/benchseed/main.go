// Command benchseed converts `go test -bench` text output into the
// normalized JSON trajectory files committed as BENCH_*.json, so
// perf numbers are tracked in-repo PR-over-PR instead of living only
// in CI artifacts.
//
// Usage:
//
//	go test -run '^$' -bench Pool . | benchseed -out BENCH_pool.json -merge
//	go test -run '^$' -bench Pool . | benchseed -gate BENCH_pool.json
//
// Metadata lines (goos/goarch/cpu/pkg) are captured alongside each
// benchmark's ns/op, MB/s, allocs and custom metrics (e.g. sim-ms). A
// benchmark that appears several times (repeated passes piped in
// together) is recorded as the median of its runs.
//
// With -merge, the previous contents of the -out file are pushed onto
// a bounded history list instead of being thrown away, so the
// committed file is a trajectory: the top-level meta/benchmarks are
// always the freshest run (old readers keep working), history[] holds
// the prior runs, oldest first, capped at historyCap.
//
// With -gate FILE, nothing is written: the fresh run on stdin is
// compared against FILE's top-level benchmarks and the process exits
// 1 when a benchmark regresses — any increase in allocs/op
// (allocation regressions are machine-independent), or ns/op more
// than -tol (default 10%) above the baseline when the baseline was
// recorded on the same cpu (wall-clock comparisons across different
// machines are noise, not signal).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iterations"`
	Metrics map[string]float64 `json:"metrics"` // unit → value ("ns/op", "MB/s", ...)
}

type seedFile struct {
	Meta       map[string]string `json:"meta"`
	Benchmarks []benchmark       `json:"benchmarks"`
	History    []run             `json:"history,omitempty"`
}

// run is one archived entry of the trajectory: the meta/benchmarks
// pair that used to be the file's top level before a newer run
// displaced it.
type run struct {
	Meta       map[string]string `json:"meta"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

// historyCap bounds the committed trajectory length; beyond it the
// oldest runs fall off. A dozen PRs of history is enough to eyeball a
// trend without the JSON growing forever.
const historyCap = 12

func parse(r io.Reader) (*seedFile, error) {
	out := &seedFile{Meta: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			out.Meta[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, err
			}
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	out.Benchmarks = medians(out.Benchmarks)
	return out, nil
}

// medians folds repeated runs of a benchmark — several `go test
// -bench` passes piped in one after another, as `make bench-seed`
// does — into one entry per name, in first-seen order, whose
// iteration count and metrics are the medians over its runs (the mean
// of the middle two for an even count), so one fast or slow host
// window neither sets nor fails a baseline.
func medians(bs []benchmark) []benchmark {
	runs := map[string][]benchmark{}
	var order []string
	for _, b := range bs {
		if _, ok := runs[b.Name]; !ok {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]benchmark, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		iters := make([]float64, len(rs))
		vals := map[string][]float64{}
		for i, r := range rs {
			iters[i] = float64(r.Iters)
			for unit, v := range r.Metrics {
				vals[unit] = append(vals[unit], v)
			}
		}
		m := benchmark{Name: name, Iters: int64(median(iters)), Metrics: map[string]float64{}}
		for unit, vs := range vals {
			m.Metrics[unit] = median(vs)
		}
		out = append(out, m)
	}
	return out
}

func median(vs []float64) float64 {
	sort.Float64s(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}

// parseBench decodes one result line: name, iteration count, then
// value/unit pairs ("213066 ns/op", "38.45 MB/s", "0 allocs/op").
func parseBench(line string) (benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchmark{}, fmt.Errorf("short benchmark line %q", line)
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix: trajectories compare across runs.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, fmt.Errorf("benchmark line %q: %v", line, err)
	}
	b := benchmark{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, fmt.Errorf("benchmark line %q: %v", line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// mergeHistory folds the previous contents of the trajectory file
// into cur: the old top-level run is appended to the history (oldest
// first), capped at historyCap; prior history is carried over. A
// missing file is a fresh trajectory, not an error.
func mergeHistory(prev []byte, cur *seedFile) error {
	var old seedFile
	if err := json.Unmarshal(prev, &old); err != nil {
		return fmt.Errorf("existing trajectory: %v", err)
	}
	hist := append(old.History, run{Meta: old.Meta, Benchmarks: old.Benchmarks})
	if len(hist) > historyCap {
		hist = hist[len(hist)-historyCap:]
	}
	cur.History = hist
	return nil
}

// gate compares a fresh run against the committed baseline and
// returns one line per regression. Allocation counts gate
// unconditionally — a steady-state alloc/op is a code property, not a
// machine property. Wall-clock (ns/op) gates only when the baseline
// was recorded on the same cpu string; cross-machine timing deltas
// are noise. Benchmarks present on only one side are ignored: adding
// or retiring a benchmark is not a regression.
func gate(baseline, fresh *seedFile, tol float64) []string {
	var fails []string
	sameCPU := baseline.Meta["cpu"] != "" && baseline.Meta["cpu"] == fresh.Meta["cpu"]
	byName := make(map[string]benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		byName[b.Name] = b
	}
	for _, nb := range fresh.Benchmarks {
		ob, ok := byName[nb.Name]
		if !ok {
			continue
		}
		if oa, okO := ob.Metrics["allocs/op"]; okO {
			if na, okN := nb.Metrics["allocs/op"]; okN && na > oa {
				fails = append(fails, fmt.Sprintf(
					"%s: allocs/op %g -> %g (any new steady-state allocation fails the gate)",
					nb.Name, oa, na))
			}
		}
		if !sameCPU {
			continue
		}
		if ons, okO := ob.Metrics["ns/op"]; okO && ons > 0 {
			if nns, okN := nb.Metrics["ns/op"]; okN && nns > ons*(1+tol) {
				fails = append(fails, fmt.Sprintf(
					"%s: ns/op %g -> %g (+%.1f%%, tolerance %.0f%%)",
					nb.Name, ons, nns, (nns/ons-1)*100, tol*100))
			}
		}
	}
	return fails
}

func main() {
	out := flag.String("out", "", "write JSON to this file (default stdout)")
	merge := flag.Bool("merge", false, "fold the previous contents of -out into a bounded history instead of overwriting")
	gateFile := flag.String("gate", "", "compare stdin against this trajectory file and exit 1 on regression; writes nothing")
	tol := flag.Float64("tol", 0.10, "ns/op regression tolerance for -gate (same-cpu baselines only)")
	flag.Parse()

	seed, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchseed: %v\n", err)
		os.Exit(1)
	}

	if *gateFile != "" {
		blob, err := os.ReadFile(*gateFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchseed: %v\n", err)
			os.Exit(1)
		}
		var baseline seedFile
		if err := json.Unmarshal(blob, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchseed: %s: %v\n", *gateFile, err)
			os.Exit(1)
		}
		fails := gate(&baseline, seed, *tol)
		if len(fails) > 0 {
			fmt.Fprintf(os.Stderr, "benchseed: %d regression(s) against %s:\n", len(fails), *gateFile)
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Printf("benchseed: %d benchmark(s) within gate against %s\n", len(seed.Benchmarks), *gateFile)
		return
	}

	if *merge && *out != "" {
		if prev, err := os.ReadFile(*out); err == nil {
			if err := mergeHistory(prev, seed); err != nil {
				fmt.Fprintf(os.Stderr, "benchseed: %s: %v\n", *out, err)
				os.Exit(1)
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchseed: %v\n", err)
			os.Exit(1)
		}
	}
	enc, err := json.MarshalIndent(seed, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchseed: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchseed: %v\n", err)
		os.Exit(1)
	}
}
