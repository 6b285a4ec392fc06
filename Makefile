GO ?= go
FUZZTIME ?= 30s
# Staticcheck is pinned: version drift between developer machines and CI
# turns every upstream check change into spurious red. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test check vet race fuzz-smoke campaign chaos staticcheck \
	staticcheck-install analyzers lint analyze serve-smoke crash cluster-chaos \
	bench-smoke bench-check overload-chaos census

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { \
		echo "gofmt: not formatted:"; echo "$$unformatted"; exit 1; }

# race runs the full suite under the race detector. -short trims the
# differential campaign and the heavier property sweeps so the ~10x race
# overhead stays inside a CI budget; the full-size campaign runs race-free
# in `test`.
race:
	$(GO) test -race -short ./...

# fuzz-smoke runs the cross-engine differential fuzzer for a bounded time
# on top of the checked-in corpus (any disagreement is shrunk and reported
# with a ready-to-paste regression test), then the server's answer encoder
# against encoding/json for 10 s, and the client's answer decoder against
# json.Unmarshal for 10 s.
fuzz-smoke:
	$(GO) test ./internal/differential -run='^$$' -fuzz=FuzzCrossEngine -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzAnswersJSON -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzQueryResponseDecode -fuzztime=10s

# campaign replays the standing 200-program differential campaign (also run
# as TestCrossEngineCampaign) through the CLI, then the shared-serving
# campaign in full (TestSharedCampaign is its smoke run).
campaign:
	$(GO) run ./cmd/difffuzz -programs 200 -v
	$(GO) run ./cmd/difffuzz -mode shared -programs 400 -v

# chaos is the fault-injection tier: every engine driven through the
# deterministic fault plans of internal/faultinject, race-enabled, asserting
# typed errors, no goroutine leaks, and deterministic truncation points.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/...

# staticcheck is a hard gate: the run fails if the tool is missing or not
# at the pinned version. Install it with `make staticcheck-install`
# (requires network; the CI vet job does exactly that).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck: not installed; run 'make staticcheck-install'"; exit 1; }
	@staticcheck -version | grep -qF "$(STATICCHECK_VERSION)" || { \
		echo "staticcheck: version mismatch: want $(STATICCHECK_VERSION), got: $$(staticcheck -version)"; exit 1; }
	staticcheck ./...

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# analyzers runs the repo's own Go invariant checkers (tools/analyzers):
# nopanic, typederr and govcontext over every package.
analyzers:
	$(GO) run ./tools/analyzers/multichecker .

# lint runs the MultiLog/Datalog program linter over the shipped example
# corpus; warnings fail too, the corpus is meant to be pristine.
lint:
	$(GO) run ./cmd/multivet -strict examples/ cmd/multilog/testdata

# analyze runs the full pass catalog (including the whole-program flow and
# cost analyses) over the example corpus and emits the findings as a SARIF
# artifact for code-scanning upload. The corpus is clean, so the artifact
# normally carries an empty result set under the full rule catalog.
analyze:
	$(GO) run ./cmd/multivet -sarif examples/ cmd/multilog/testdata > multivet.sarif
	@echo "analyze: wrote multivet.sarif"

# serve-smoke is the end-to-end daemon gate: generate a workload program,
# start multilogd, storm it with serveload (concurrent sessions plus
# assert/retract churn), cross-check /v1/stats, verify a clean SIGTERM
# drain, then SIGKILL a durable daemon and prove the acknowledged write
# survives a restart, then boot a follower of it and a router in front of
# both, hold one query's answers through each byte for byte to the
# primary's, and require each one's SIGTERM drain to exit 0 and log
# "drained"; then write on the primary, restart the follower on its data
# directory and hold its answers to the primary's again.
serve-smoke:
	sh scripts/serve_smoke.sh

# crash runs the full kill-crash recovery matrix (crashpoint × fsync mode)
# under the race detector: multilogd as a child process, SIGKILLed by
# injected WAL faults, restarted, and checked for zero acked-write loss and
# byte-equal answers against a reference replay.
crash:
	CRASH_MATRIX=full $(GO) test -race -count=1 -run TestKillCrashRecovery ./internal/wal/crash

# cluster-chaos runs the replication fleet matrix under the race detector:
# primary + two followers + router as real child processes, the primary
# SIGKILLed mid-checkpoint and mid-stream, stream frames corrupted and
# torn, a follower partitioned and re-caught-up — checked for zero
# acked-write loss after promotion and byte-equal answers across the
# fleet for every clearance × belief mode.
cluster-chaos:
	CRASH_MATRIX=full $(GO) test -race -count=1 -run TestClusterChaos ./internal/wal/crash

# overload-chaos runs the overload-protection harness under the race
# detector: a serveload storm driven far past the admission controller's
# capacity with fault-injected latency spikes, asserting bounded
# admitted-read p99, a never-starved control plane (healthz and
# replication bypass admission), brownout stale serving, zero acked-write
# loss during overload, and zero goroutine leaks after drain.
overload-chaos:
	$(GO) test -race -count=1 \
		-run 'TestOverloadChaos|TestSustainedOverloadNoLeaks|TestBrownoutServesStale' \
		./internal/server

# bench-smoke runs the compiled-engine, overload, fact-write and rule-write
# benchmarks at a short benchtime and gates their ratios (compiled model
# build vs interpreter, goodput with admission on vs off, allocations of a
# full rebuild vs a delta or adopting advance) with the script's awk `gate`,
# then the write path's allocation-flatness test. Time bars are looser than
# EXPERIMENTS.md's long-run ratios to absorb short-run noise.
bench-smoke:
	sh scripts/bench_smoke.sh

# bench-check vets and short-tests bench/, the frozen benchmark module
# (`replace repro => ../`; `go build ./...` does not descend into it), so
# a refactor that breaks the API it mirrors fails here rather than in the
# benchmark pipeline.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# census counts what the roadmap budgets — non-test Go lines outside bench/,
# non-test Go lines under bench/ and the wall time of tier-1 (go build ./...
# && go test ./..., uncached) — prints them and writes them to CENSUS.json,
# the committed three-row artifact beside BENCHMARK.json that a PR's "lines
# not up" and the next re-anchor read instead of recounting.
census:
	@lines=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l); \
	bench=$$(find ./bench -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l); \
	start=$$(date +%s); \
	$(GO) build ./... && $(GO) test -count=1 ./... > /dev/null || exit 1; \
	printf '[\n  {"name": "non_test_go_lines", "scope": "*.go outside bench/, _test.go left out", "unit": "lines", "value": %d},\n  {"name": "bench_go_lines", "scope": "*.go under bench/, _test.go left out", "unit": "lines", "value": %d},\n  {"name": "tier1_wall", "scope": "go build ./... && go test -count=1 ./...", "unit": "s", "value": %d}\n]\n' \
		$$lines $$bench $$(($$(date +%s) - start)) > CENSUS.json; \
	cat CENSUS.json

# check is the CI tier: vet, the custom analyzers, staticcheck, build, the
# program linter, the SARIF analysis artifact, the race-enabled suite, the chaos tier, the crash-recovery
# matrix, the replication cluster-chaos matrix, the overload-protection
# harness, the daemon smoke, the frozen-benchmark compile guard, the bench
# smokes (compiled, overload goodput, write allocations), a bounded
# differential fuzz smoke, and the line, bench/ line and tier-1 census.
check: vet analyzers staticcheck build bench-check lint analyze race chaos crash cluster-chaos overload-chaos serve-smoke bench-smoke fuzz-smoke census
	@echo "check: all gates passed"
