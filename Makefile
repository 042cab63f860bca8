# Developer convenience targets. CI (.github/workflows/ci.yml) runs
# the same commands; keep the two in sync.

GOPATH_BIN := $(shell go env GOPATH)/bin

.PHONY: build vet test race race-full lint lint-json lint-vet fmt loc figures figures-check portable fuzz-smoke check battery-short battery-long bench-seed bench-gate fleet-drill substream-test

build:
	go build ./...

## vet: CI's first step — the standard vet checks on the host
## architecture (portable vets the other word sizes and byte orders).
vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race -short -shuffle=on -count=2 ./...

## race-full: the complete (non-short) suite under the race detector —
## long batteries, chaos recovery storms and the fleet drill included —
## so the static lock-order/goleak claims are cross-checked on real
## schedules. Slow by design; CI runs it weekly (race-full.yml), run it
## locally before touching lock structure or goroutine lifetimes.
race-full:
	go test -race -shuffle=on -count=1 -timeout 60m ./...
	go test -run Chaos -race -count=3 -timeout 30m ./...

## lint: run the hybridlint analyzer suite standalone (fast loop).
lint:
	go run ./cmd/hybridlint ./...

## lint-json: same run, plus machine-readable findings for artifacts
## and editor tooling.
lint-json:
	go run ./cmd/hybridlint -json ./... > hybridlint.json

## lint-vet: the exact CI invocation — hybridlint under go vet's
## unit-checker protocol.
lint-vet:
	go install ./cmd/hybridlint
	go vet -vettool="$(GOPATH_BIN)/hybridlint" ./...

fmt:
	gofmt -l .

## loc: the three size counts ROADMAP's code budget is judged by —
## non-test Go, test Go and assembly lines, outside randdbench/ (its
## own module) and .bench_build/ (its build output).
LOC_FILES = find . ! -path './randdbench/*' ! -path './.bench_build/*'
loc:
	@printf 'non-test Go %7d\n' $$($(LOC_FILES) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf 'test Go     %7d\n' $$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)
	@printf 'assembly    %7d\n' $$($(LOC_FILES) -name '*.s' -exec cat {} + | wc -l)

## figures: print every deterministic simulated output — the headline,
## Figure 1 with its timeline, Figures 3-5, Figure 7 and Figure 8, with
## the real runs that anchor the last two. The numbers are pure
## functions of the cost model and the booking order, so a change to
## internal/{hybrid,gpu,listrank,photon} that means to move no figure
## must print the same bytes here as its parent.
figures:
	go run ./cmd/reproduce -exp headline
	go run ./cmd/reproduce -exp F1
	go run ./cmd/prngbench -figure3 -figure4 -figure5
	go run ./cmd/listrank
	go run ./cmd/photonmc

## figures-check: diff a fresh `make -s figures` against the committed
## testdata/figures.txt; CI runs it. A change that means to move a
## figure regenerates the file in the same commit
## (`make -s figures > testdata/figures.txt`) and says so in CHANGES.md.
figures-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		$(MAKE) -s figures > "$$tmp" && diff -u testdata/figures.txt "$$tmp"

## portable: execute the paths non-amd64 and big-endian hosts take —
## the purego tag forces the portable walk (every lane through
## chunk21's three-step table, where AVX2 hosts run groups of five or
## more lanes through the round kernel), the glibc feed's and the
## health screen's Go loops (where AVX2 hosts run their vector
## kernels) and FillBytes' encode-through-scratch branch on amd64, and
## the short suite runs as 386 (x86-64 Linux executes it natively), so
## 32-bit int code runs too — then vet the other word sizes and byte
## orders. arm64 and s390x are vetted only; nothing here executes them.
portable:
	go test -tags purego -short ./internal/core ./internal/wordbytes ./internal/baselines ./internal/bitsource .
	GOARCH=386 go test -short ./...
	for arch in arm64 s390x 386; do GOARCH=$$arch go vet ./... || exit 1; done

## fuzz-smoke: run seven fuzzers for 30 s each past their seed corpora.
## The glibc feed's block draw must equal its per-word stream from any
## seed and ring position. The AVX2 round kernel must walk every live
## lane of any bins, lane count, walk length, round length and start
## point to walkBin's outputs and end position. The block screen and
## the word-at-a-time check skip the SP 800-90B monitor's per-byte
## tests; the two monitor fuzzers hold both to them on inputs nobody
## wrote down. The two
## client fuzzers hold the block read and the Retry-After parser to
## their bounds against whatever a server sends. The fleet fuzzer
## holds the controller to a non-5xx answer, without a panic, for any
## register body, heartbeat body or ?wait= value a node or curl sends.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzGlibcFillWords$$' -fuzztime 30s ./internal/baselines
	go test -run '^$$' -fuzz '^FuzzWalkBinsMatchesWalkBin$$' -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz '^FuzzMonitorBlockMatchesWord$$' -fuzztime 30s ./internal/bitsource
	go test -run '^$$' -fuzz '^FuzzMonitorWordMatchesByte$$' -fuzztime 30s ./internal/bitsource
	go test -run '^$$' -fuzz '^FuzzClientResponse$$' -fuzztime 30s ./client
	go test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 30s ./client
	go test -run '^$$' -fuzz '^FuzzServerRequests$$' -fuzztime 30s ./internal/fleet

## battery-short: the per-PR cross-stream battery — 256 streams per
## source under the race detector, the same invocation CI runs.
battery-short:
	go test -run CrossStream -short -race ./...

## battery-long: the scheduled deep battery — thousands of streams,
## long-profile tests plus the standalone JSON verdict reporter.
battery-long:
	go test -run CrossStream -count=1 -timeout 30m ./...
	go run ./cmd/crossstream -long -out BENCH_battery_long.json

## bench-seed: regenerate the committed benchmark/quality
## trajectories. The BENCH_*.json files are merge-appended: the fresh
## run becomes the top level and the previous run is pushed onto the
## bounded history list, so the committed file shows the PR-over-PR
## trajectory, not just the latest point. Timings are the median of
## BENCH_PASSES passes over the whole family, one after another, so
## every row is sampled across the run rather than in one host window.
## The quality battery (parallel + pool + derived substreams) rides
## the same machinery via crossstream -benchtext.
BENCH_PASSES ?= 5
POOL_BENCH = go test -run '^$$' -bench 'BenchmarkPool|BenchmarkGetNextRand' -benchtime 0.5s .
SERVER_BENCH = go test -run '^$$' -bench 'BenchmarkServe' -benchtime 0.5s ./internal/server
CORE_BENCH = go test -run '^$$' -bench 'BenchmarkFillBatch|BenchmarkRegistryDraw|BenchmarkGlibcRandFillWords|BenchmarkMonitor' -benchtime 0.5s ./internal/core ./internal/substream ./internal/baselines ./internal/bitsource
bench-seed:
	go run ./cmd/crossstream -benchtext \
		| go run ./cmd/benchseed -out BENCH_quality.json -merge
	for i in $$(seq $(BENCH_PASSES)); do $(CORE_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -out BENCH_core.json -merge
	for i in $$(seq $(BENCH_PASSES)); do $(POOL_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -out BENCH_pool.json -merge
	for i in $$(seq $(BENCH_PASSES)); do $(SERVER_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -out BENCH_server.json -merge

## bench-gate: run the core (walk at 1-16 lanes, keyed draws, the
## glibc feed's block draw and the health tests), pool
## and server benchmark families against the committed trajectories
## and fail on regression — any new
## steady-state alloc/op (machine-independent), or >10% ns/op of the
## median over BENCH_PASSES passes on the same cpu as the committed
## baseline (cross-machine wall-clock is noise and is not gated).
bench-gate:
	for i in $$(seq $(BENCH_PASSES)); do $(CORE_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -gate BENCH_core.json
	for i in $$(seq $(BENCH_PASSES)); do $(POOL_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -gate BENCH_pool.json
	for i in $$(seq $(BENCH_PASSES)); do $(SERVER_BENCH) || exit 1; done \
		| go run ./cmd/benchseed -gate BENCH_server.json

## substream-test: the per-tenant substream acceptance loop — the
## registry package under the race detector (keyed-draw concurrency
## stress, fakeClock rate limits, golden vectors, state fuzzers' seed
## corpora) plus the keyed server/client drills (kill-resume, drain
## hand-over, 429 metering, Substream handles).
substream-test:
	go test -race -count=1 ./internal/substream
	go test -race -count=1 -run 'Substream|Keyed|NodeState' ./internal/server ./client

## fleet-drill: the control-plane acceptance drill — controller +
## three nodes + SDK client on loopback, seeded kill and a
## stream-preserving drain, repeated under the race detector exactly
## as CI's chaos job runs it.
fleet-drill:
	go test -run Chaos -race -count=3 -v ./internal/fleet

## check: everything a merge gate checks that runs offline.
check: vet build lint test race portable fuzz-smoke
	test -z "$$(gofmt -l .)"
