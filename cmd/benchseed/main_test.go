package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPool/fill-8KiB-2         	    9049	    134002 ns/op	  61.13 MB/s	       0 B/op	       0 allocs/op
BenchmarkPool/uint64-2            	 6554396	       177.0 ns/op	  45.20 MB/s
PASS
ok  	repro	3.909s
`

func parseSample(t *testing.T, text string) *seedFile {
	t.Helper()
	seed, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

func TestParseStripsGomaxprocsSuffix(t *testing.T) {
	seed := parseSample(t, sampleOutput)
	if len(seed.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks", len(seed.Benchmarks))
	}
	if got := seed.Benchmarks[0].Name; got != "BenchmarkPool/fill-8KiB" {
		t.Errorf("name %q", got)
	}
	if got := seed.Benchmarks[0].Metrics["allocs/op"]; got != 0 {
		t.Errorf("allocs/op %g", got)
	}
	if got := seed.Meta["cpu"]; !strings.Contains(got, "Xeon") {
		t.Errorf("cpu meta %q", got)
	}
}

// TestParseFoldsRepeatedRunsToMedian: three passes of the same
// benchmarks piped in together become one entry each, in first-seen
// order, carrying the median of every metric — the outlying pass
// moves nothing.
func TestParseFoldsRepeatedRunsToMedian(t *testing.T) {
	pass := func(fill, draw string) string {
		return "goos: linux\ncpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n" +
			"BenchmarkPool/fill-8KiB-2 9049 " + fill + " ns/op 0 allocs/op\n" +
			"BenchmarkPool/uint64-2 6554396 " + draw + " ns/op\nPASS\n"
	}
	seed := parseSample(t, pass("134002", "177.0")+pass("90000", "240.5")+pass("130000", "180.0"))
	if len(seed.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want the 2 distinct names", len(seed.Benchmarks))
	}
	for i, want := range []struct {
		name string
		ns   float64
	}{{"BenchmarkPool/fill-8KiB", 130000}, {"BenchmarkPool/uint64", 180}} {
		b := seed.Benchmarks[i]
		if b.Name != want.name || b.Metrics["ns/op"] != want.ns {
			t.Errorf("entry %d: %s at %g ns/op, want %s at %g", i, b.Name, b.Metrics["ns/op"], want.name, want.ns)
		}
	}
	if got := seed.Benchmarks[0].Metrics["allocs/op"]; got != 0 {
		t.Errorf("allocs/op %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count %g, want 2.5", got)
	}
}

func TestMergeHistoryAppendsAndCaps(t *testing.T) {
	old := &seedFile{
		Meta:       map[string]string{"cpu": "old-cpu"},
		Benchmarks: []benchmark{{Name: "B", Iters: 1, Metrics: map[string]float64{"ns/op": 100}}},
	}
	blob, _ := json.Marshal(old)

	cur := parseSample(t, sampleOutput)
	if err := mergeHistory(blob, cur); err != nil {
		t.Fatal(err)
	}
	if len(cur.History) != 1 {
		t.Fatalf("history length %d, want 1", len(cur.History))
	}
	if cur.History[0].Meta["cpu"] != "old-cpu" {
		t.Errorf("history entry lost its meta: %v", cur.History[0].Meta)
	}
	// The fresh run stays at the top level.
	if cur.Benchmarks[0].Name != "BenchmarkPool/fill-8KiB" {
		t.Errorf("top-level benchmarks are not the fresh run")
	}

	// Chain merges past the cap: the oldest entries must fall off.
	for i := 0; i < historyCap+5; i++ {
		blob, _ = json.Marshal(cur)
		cur = parseSample(t, sampleOutput)
		if err := mergeHistory(blob, cur); err != nil {
			t.Fatal(err)
		}
	}
	if len(cur.History) != historyCap {
		t.Errorf("history length %d, want cap %d", len(cur.History), historyCap)
	}
}

func TestGateFailsOnNewAllocs(t *testing.T) {
	baseline := parseSample(t, sampleOutput)
	fresh := parseSample(t, strings.ReplaceAll(sampleOutput,
		"0 allocs/op", "3 allocs/op"))
	fails := gate(baseline, fresh, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("want one allocs/op failure, got %v", fails)
	}
	// Alloc regressions gate even when the cpu differs.
	fresh.Meta["cpu"] = "some-other-cpu"
	if fails := gate(baseline, fresh, 0.10); len(fails) != 1 {
		t.Fatalf("alloc gate must be machine-independent, got %v", fails)
	}
}

func TestGateNsOpTolerance(t *testing.T) {
	baseline := parseSample(t, sampleOutput)

	within := parseSample(t, strings.ReplaceAll(sampleOutput,
		"134002 ns/op", "140000 ns/op")) // +4.5%
	if fails := gate(baseline, within, 0.10); len(fails) != 0 {
		t.Fatalf("within tolerance, got %v", fails)
	}

	beyond := parseSample(t, strings.ReplaceAll(sampleOutput,
		"134002 ns/op", "160000 ns/op")) // +19%
	fails := gate(baseline, beyond, 0.10)
	if len(fails) != 1 || !strings.Contains(fails[0], "ns/op") {
		t.Fatalf("want one ns/op failure, got %v", fails)
	}

	// A different cpu string disables the wall-clock gate entirely.
	beyond.Meta["cpu"] = "some-other-cpu"
	if fails := gate(baseline, beyond, 0.10); len(fails) != 0 {
		t.Fatalf("cross-machine ns/op must not gate, got %v", fails)
	}
}

func TestGateIgnoresAddedAndRetiredBenchmarks(t *testing.T) {
	baseline := parseSample(t, sampleOutput)
	fresh := parseSample(t, `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBrandNew-2    100    999999999 ns/op    7 allocs/op
`)
	if fails := gate(baseline, fresh, 0.10); len(fails) != 0 {
		t.Fatalf("new benchmark must not gate, got %v", fails)
	}
}
