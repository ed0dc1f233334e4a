# Local and CI invocations stay identical: .github/workflows/ci.yml calls
# these targets and nothing else.

GO ?= go

# Stamped into every binary (internal/version.Version) so -version and
# the comet_build_info metric report what was actually deployed.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X github.com/comet-explain/comet/internal/version.Version=$(VERSION)"

# Where the e2e kill/resume test leaves its durable-store artifacts, so
# verify-store can audit them afterwards.
E2E_STORE_DIR ?= /tmp/comet-e2e-store

# Where failing e2e/cluster tests drop their post-mortem artifacts
# (server JSON logs, /debug/flight dumps); CI uploads this directory on
# failure.
E2E_ARTIFACT_DIR ?= /tmp/comet-e2e-artifacts

.PHONY: build test perfbench-test test-race test-e2e test-cluster verify-store examples bench bench-smoke bench-check bench-baseline fuzz-smoke loc lint vet staticcheck fmt fmt-check

build:
	$(GO) build $(LDFLAGS) ./...

# The documented surface must keep compiling and running across API
# redesigns: build every example and run the quickstart as a smoke test.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart

test:
	$(GO) test ./...

# perfbench is a nested module (it replaces this one with ../), so the
# root `go test ./...` skips it; vet and test it on its own.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test-race:
	$(GO) test -race ./...

# End-to-end service smoke tests: build the real comet-serve binary (with
# the race detector), start it on a random port, drive the HTTP API, and
# shut it down gracefully — plus the durability test that SIGKILLs the
# server mid-corpus-job and asserts the restarted server resumes it with
# byte-identical results.
test-e2e:
	COMET_E2E_STORE_DIR=$(E2E_STORE_DIR) COMET_E2E_ARTIFACT_DIR=$(E2E_ARTIFACT_DIR) \
		$(GO) test -race -run 'TestServeEndToEnd|TestServeKillResumeByteIdentical|TestServeIngestELF' -v ./cmd/comet-serve

# Cluster e2e: a coordinator shards a corpus job across two real worker
# processes; one worker is SIGKILLed mid-lease and the coordinator is
# SIGKILLed and restarted on the same store — the job must complete with
# per-block JSON byte-identical to a single-process run. Includes the
# cockpit test: federated /debug/history from every process, slow-request
# outlier retention despite head sampling, and a comet-top -once -json
# snapshot asserted non-empty for all three processes.
test-cluster:
	COMET_E2E_STORE_DIR=$(E2E_STORE_DIR) COMET_E2E_ARTIFACT_DIR=$(E2E_ARTIFACT_DIR) \
		$(GO) test -race -run TestClusterE2E -v ./cmd/comet-serve

# Audit the durable stores the e2e tests left behind: every frame
# checksummed, corruption reported (and -strict fails the build on any —
# after a graceful exit the stores must be clean).
verify-store:
	$(GO) run ./cmd/comet-store -dir $(E2E_STORE_DIR)/kill-resume -strict -json verify
	$(GO) run ./cmd/comet-store -dir $(E2E_STORE_DIR)/kill-resume stats
	$(GO) run ./cmd/comet-store -dir $(E2E_STORE_DIR)/cluster -strict -json verify
	$(GO) run ./cmd/comet-store -dir $(E2E_STORE_DIR)/cluster stats

# Full benchmark suite (regenerates the paper's tables at benchmark scale).
bench:
	$(GO) test -bench=. -benchtime=1s -run='^$$' ./...

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Wire benchmark scale. The stream runs at the baseline's full 100000
# blocks: the bench's built-in memory-flatness gate compares peak heap
# against the result volume, which must dwarf fixed overhead (bounded
# caches, GC slack) for the comparison to mean anything.
BENCH_WIRE_REQUESTS ?= 3000
BENCH_WIRE_BLOCKS   ?= 100000

# The CI regression gate: rerun the wire benchmark and compare against
# the committed baseline. Fails on >25% regression of the binary-vs-JSON
# speedup or >10% growth in per-request allocations — both machine-
# portable; raw req/s is recorded but never gated (it measures the
# runner, not the code). BENCH_current.json is the fresh summary, kept
# for upload as a CI artifact.
bench-check:
	$(GO) run ./cmd/comet-bench -wire \
		-wire-requests $(BENCH_WIRE_REQUESTS) -stream-blocks $(BENCH_WIRE_BLOCKS) \
		-json-out BENCH_current.json -check BENCH_baseline.json

# Refresh the committed baseline at the gate's own scale (run on a quiet
# machine, then commit BENCH_baseline.json with the change that moved it).
# bench-check warns when the baseline's gomaxprocs or requests differ
# from its own run's.
bench-baseline:
	$(GO) run ./cmd/comet-bench -wire \
		-wire-requests $(BENCH_WIRE_REQUESTS) -stream-blocks $(BENCH_WIRE_BLOCKS) \
		-json-out BENCH_baseline.json

# Brief native fuzzing of the frame scanner, the binary decoder, the JSON
# wire types, the x86 machine-code decoder, the Intel-syntax text parser,
# the dependency access summary against the dependency graph, the
# model-spec grammar, ELF extraction, durable-store segment recovery, the
# cometd HTTP handler (every route row, in process) and the anchor
# search's certification verdict against bisected bounds, starting from the
# committed corpus in internal/wire/testdata/fuzz and each target's in-test
# seeds.
# One -fuzz pattern per invocation: go test rejects multiple fuzz targets
# in a single fuzzing run. -fuzzminimizetime bounds the minimization of each
# new interesting input: unbounded, minimizing a large input (a whole ELF
# image, a store segment) stalls the workers for the rest of the budget.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBinary$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzScanFrames$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzWireJSON$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeX86$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/x86/decode
	$(GO) test -run='^$$' -fuzz='^FuzzParseX86Text$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/x86
	$(GO) test -run='^$$' -fuzz='^FuzzAccessSummary$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/deps
	$(GO) test -run='^$$' -fuzz='^FuzzParseModelSpec$$' -fuzztime=30s -fuzzminimizetime=2s .
	$(GO) test -run='^$$' -fuzz='^FuzzExtractBytes$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzOpenSegment$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/persist
	$(GO) test -run='^$$' -fuzz='^FuzzHandler$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzVerdict$$' -fuzztime=30s -fuzzminimizetime=2s ./internal/anchors

# Go line counts, non-test and test, outside the nested perfbench module
# and the benchmark's build directory: every change reports its net
# non-test delta (run it before and after).
LOC_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
loc:
	@$(LOC_FILES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "non-test Go lines: " $$1}'
	@$(LOC_FILES) -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "test Go lines:     " $$1}'

lint: fmt-check vet staticcheck

# staticcheck is optional locally (skipped when the binary is absent) but
# required in CI, which installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .
