# CI entry points. `make ci` is what the repository considers green:
# lint (formatting, vet, staticcheck), build, race-enabled tests, a
# short fuzz smoke of the trace parsers, a span-tracing smoke of the
# observability exporter, the distributed-sweep smoke, the multi-tenant
# service smoke (a real daemon under 32-tenant load with a SIGTERM
# drain), and one timed pass of the headline evaluation benchmark and of
# the codec kernel benchmarks.
# `make benchguard` is the separate regression gate: it regenerates the
# benchmark records and fails if they fall outside the committed
# records' tolerance bands. The CI workflow fans these out as separate
# jobs (see .github/workflows/ci.yml for the job layout).

GO ?= go

.PHONY: all ci build vet fmt-check lint staticcheck test test-stream fuzz-smoke trace-smoke dist-smoke serve-smoke net-smoke bench benchjson benchguard

all: ci

ci: lint build test test-stream fuzz-smoke trace-smoke dist-smoke serve-smoke net-smoke bench

# `make test` already races the dist package once; dist-smoke is the
# named CI scenario on top (see its comment below), cheap enough to
# repeat.

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; any output fails the gate.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The lint gate CI requires: formatting, vet, and pinned staticcheck.
lint: fmt-check vet staticcheck

# Staticcheck is pinned and fetched on demand by `go run`. A sandbox
# without module-proxy network cannot fetch it, so probe first and skip
# LOUDLY rather than fail the whole gate offline — CI has network and
# runs it for real.
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@v0.4.7
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck SKIPPED: honnef.co/go/tools not fetchable (offline sandbox?) — the CI lint job runs it"; \
	fi

test:
	$(GO) test -race ./...

# The streaming pipeline's packages get a dedicated vet + race pass:
# the fan-out is the only concurrent producer/consumer machinery in the
# tree, and the pooled-chunk refcounts are easy to get subtly wrong. The
# scalar batch kernels read each broadcast chunk's columns in place, next
# to the delta group's and the T0-family group's workers, so the fan-out
# tests run ten times over under the race detector;
# TestEvaluateStreamingParity prices every registered codec there, per
# line and in aggregate, against codec.Run.
test-stream:
	$(GO) vet ./internal/trace ./internal/core
	$(GO) test -race ./internal/trace ./internal/core
	$(GO) test -race -count=10 -run EvaluateStreaming ./internal/core

# Short coverage-guided fuzz smoke — enough to catch a freshly
# introduced panic on malformed input (trace parsers, whose two BETR
# decoders must also agree, checkpoint journals replayed into the
# distributed merge), a broken snapshot/restore contract (codec state
# splitting) or a pricing path drifting from codec.Run (the
# differential FuzzPricingPaths, and FuzzSweepPlans for in-process dist
# sweeps under every plan shape: whole-trace groups only, groups and
# entry shards, entry shards only), a dist worker mishandling the
# frames a coordinator or TCP peer sends it (FuzzWorkerFrames), the
# 64x64 bit transpose busencbench times drifting from a naive transpose
# (FuzzTransposeRoundTrip), or an
# upload the trace store accepts but cannot price as it reported
# (FuzzIngest) without stalling CI. Go allows one -fuzz target per
# invocation, hence separate runs.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadText -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzReadBinary -fuzztime=5s ./internal/trace
	$(GO) test -run=NONE -fuzz=FuzzSnapshotSplit -fuzztime=5s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzPricingPaths -fuzztime=5s ./internal/codec
	$(GO) test -run=NONE -fuzz=FuzzTransposeRoundTrip -fuzztime=5s ./internal/bus
	$(GO) test -run=NONE -fuzz=FuzzCheckpointReplay -fuzztime=5s ./internal/dist
	$(GO) test -run=NONE -fuzz=FuzzSweepPlans -fuzztime=5s ./internal/dist
	$(GO) test -run=NONE -fuzz=FuzzWorkerFrames -fuzztime=5s ./internal/dist
	$(GO) test -run=NONE -fuzz=FuzzIngest -fuzztime=5s ./internal/serve

# Span-tracing smoke: generate a small synthetic trace, price it
# through the streaming fan-out with the flight recorder exporting a
# Chrome trace-event file, then validate the file's structure and
# require the recorded spans to cover at least 95% of the traced
# wall-clock window — a hole bigger than that means a pipeline stage
# lost its instrumentation.
trace-smoke:
	mkdir -p .trace-smoke
	$(GO) run ./cmd/tracegen -bench gzip -synthetic -o .trace-smoke/smoke.trace
	$(GO) run ./cmd/paper -trace .trace-smoke/smoke.trace -spantrace .trace-smoke/spans.json > /dev/null
	$(GO) run ./cmd/tracecheck -mincover 0.95 .trace-smoke/spans.json

# Distributed-sweep smoke: the exact CI scenarios live in
# TestDistSmoke — a 3-worker sweep over a 2^18-entry trace of t0,
# working-zone and the five Seeder codecs (two whole-trace groups leave
# a worker idle, so ten entry shards fill it), with one worker killed
# mid-sweep and the coordinator stopped at a checkpoint after 7 of 12
# jobs, then resumed to results bit-identical to codec.RunFast, and a
# last sweep of every registered codec, one group per worker — and
# TestNetSmoke, the same kill + checkpoint + resume over two loopback
# TCP busencd peers for t0 and the Seeder codecs, then all codecs. The
# coordinator/worker machinery is the most concurrent code in the tree,
# so the whole dist package (and the CLI that drives it) runs under the
# race detector here. The dispatcher tests then race five times over:
# each slot's goroutine races the others for the shared queue whenever
# its worker holds no job, and TestOneJobInFlight holds every slot to
# one job at a time.
# TestSweepCorruptTrace joins them: under a plan of whole-trace groups
# only the workers decode the trace, so a corrupt body surfaces from
# whichever job reaches it first. So does TestInProcCloseWaitsForWorker:
# closing an in-process worker waits for it to return.
dist-smoke:
	$(GO) vet ./internal/dist ./cmd/busencsweep
	$(GO) test -race -run TestDistSmoke -v ./internal/dist
	$(GO) test -race -run TestNetSmoke -v ./internal/serve
	$(GO) test -race ./internal/dist ./cmd/busencsweep
	$(GO) test -race -count=5 -run 'OneJobInFlight|Plans|Checkpoint|WorkerDeath|Heartbeat|CorruptTrace|InProcClose' ./internal/dist

# Multi-tenant service smoke — the exact CI scenario: build the daemon
# and the load harness as real binaries (SIGTERM must reach a real
# process, not `go run`'s wrapper), then drive 32 tenants of mixed
# upload / sync-eval / async-eval / poll traffic against a deliberately
# tiny queue. -smoke asserts the service contract: at least one
# queue-full 503 carrying Retry-After, at least one result-cache hit,
# parity on every collected result against an in-process reference
# evaluation, a mid-run SIGTERM drain that loses zero accepted jobs,
# and a clean daemon exit. The daemon's span flight recorder is dumped
# to .serve-smoke/spans.json for the CI artifact upload.
serve-smoke:
	mkdir -p .serve-smoke
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) build -o .serve-smoke/busencload ./cmd/busencload
	.serve-smoke/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -smoke -spansout .serve-smoke/spans.json

# Networked-pricing smoke — the CI scenario: two real busencd daemons
# on loopback ports (one carrying -dist-failafter 1 so its first /dist
# connection dies mid-sweep and is redialed), a busencsweep coordinator
# pricing t0 and the Seeder codecs over both via -peers (t0's one
# whole-trace group leaves a peer idle, so the budget of 16 plans 15
# entry shards besides, and the doomed connection is sent a second job
# after its first result and dies holding it), a second, traced sweep
# against the now-warm stores (the trace ships
# by digest, so the re-sweep uploads nothing), a sweep of every codec
# over both peers (one group each) held against the same request on two
# local workers, then a fresh BENCH_dist.json with the tcp.* metrics
# for the CI artifact upload.
net-smoke:
	mkdir -p .net-smoke/store1 .net-smoke/store2
	$(GO) build -o .net-smoke/busencd ./cmd/busencd
	$(GO) build -o .net-smoke/busencsweep ./cmd/busencsweep
	$(GO) run ./cmd/tracegen -bench gzip -synthetic -o .net-smoke/smoke.trace
	@set -e; \
	.net-smoke/busencd -listen 127.0.0.1:0 -store .net-smoke/store1 -dist-failafter 1 > .net-smoke/peer1.log 2>&1 & P1=$$!; \
	.net-smoke/busencd -listen 127.0.0.1:0 -store .net-smoke/store2 > .net-smoke/peer2.log 2>&1 & P2=$$!; \
	trap 'kill $$P1 $$P2 2>/dev/null || true' EXIT; \
	A1=; A2=; \
	for i in $$(seq 1 100); do \
		A1=$$(sed -n 's/^busencd: listening on \([^ ]*\).*/\1/p' .net-smoke/peer1.log); \
		A2=$$(sed -n 's/^busencd: listening on \([^ ]*\).*/\1/p' .net-smoke/peer2.log); \
		if [ -n "$$A1" ] && [ -n "$$A2" ]; then break; fi; sleep 0.1; \
	done; \
	if [ -z "$$A1" ] || [ -z "$$A2" ]; then \
		echo "net-smoke: peers failed to start"; cat .net-smoke/peer1.log .net-smoke/peer2.log; exit 1; fi; \
	echo "net-smoke: peers $$A1 $$A2"; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -codes t0,binary,gray,offset,incxor,beach -workers 0 -peers $$A1,$$A2 -shards 16 > .net-smoke/sweep1.txt; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -codes t0,binary,gray,offset,incxor,beach -workers 0 -peers $$A1,$$A2 -shards 16 -spantrace .net-smoke/merged-trace.json > .net-smoke/sweep2.txt; \
	cmp .net-smoke/sweep1.txt .net-smoke/sweep2.txt; \
	echo "net-smoke: networked sweeps reproduce bit-identically (tracing on/off)"; cat .net-smoke/sweep2.txt; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -workers 0 -peers $$A1,$$A2 -shards 16 > .net-smoke/sweep-all.txt; \
	.net-smoke/busencsweep -trace .net-smoke/smoke.trace -workers 2 -shards 16 > .net-smoke/local-all.txt; \
	cmp .net-smoke/sweep-all.txt .net-smoke/local-all.txt; \
	echo "net-smoke: every codec over the peers matches two local workers"
	$(GO) run ./cmd/tracecheck -mincover 0.95 -minprocs 3 .net-smoke/merged-trace.json
	$(GO) run ./cmd/paper -benchdist .net-smoke/BENCH_dist.json

# One timed pass of the headline evaluation benchmark and of
# BenchmarkPricers: every Pricer the dist planner weighs (the source of
# its weight table) on a 2^20-entry muxed stream, and binary, gray,
# offset and incxor's delta group and BETR decode on a 2^20-entry
# instruction stream. Then
# one pass of each kernel group against the kernels it replaces (the
# T0-family and delta groups) and of working-zone's batch kernel alone,
# on 2^20-entry muxed streams: a kernel that stops building or panics
# fails here.
bench:
	$(GO) test -run=NONE -bench='BenchmarkTable4|BenchmarkPricers' -benchtime=1x .
	$(GO) test -run=NONE -bench='SeqSet|DeltaSet|WorkZone' -benchtime=1x ./internal/codec

# Regenerate the committed machine-readable benchmark records (see
# README "Performance"). Every BENCH_<name>.json has one schema
# (internal/bench): machine identity, a metrics map and the checks its
# producer declares. `paper -benchjson DIR` writes BENCH_engine.json
# (seed reference path vs. the batched engine on Table 4),
# BENCH_stream.json (materialized path vs. the streaming fan-out) and
# BENCH_bitslice.json (scalar kernels vs. the per-line delta group,
# which RunPlaneSet now drives, on binary, gray, offset and incxor; the
# record keeps the name of the bit-sliced plane group it timed before);
# `-benchdist` writes BENCH_dist.json
# (serial decode+price vs. the coordinator/worker distributed sweep,
# plus the tcp.* networked parity and digest-dedup metrics).
# BENCH_serve.json captures one 32-tenant load-harness run against a
# spawned daemon (see serve-smoke).
benchjson:
	$(GO) run ./cmd/paper -benchjson .
	$(GO) run ./cmd/paper -benchdist BENCH_dist.json
	mkdir -p .serve-smoke
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) run ./cmd/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -benchjson BENCH_serve.json

# Benchmark-regression gate: generate fresh records into a scratch
# directory (BENCH_{engine,stream,bitslice,dist,serve}.json, the five
# in bench.Names) and hold each against the committed one under the checks
# the committed record declares: same-machine ratio bands (a >25%
# speedup drop, or the streaming alloc ratio halving, fails), absolute
# floors (bit-sliced kernel >= 5x on any box; distributed sweep >=
# 1.3x with >= 4 CPUs) and invariants that bind on every machine
# (parity, zero lost jobs, zero trace bytes re-shipped to warm peers).
# A check that cannot bind on this box — too few CPUs, or a baseline
# committed on another machine — is skipped with a "skipped: num_cpu=N"
# or "cross-machine baseline" note on stdout, loudly, never silently.
benchguard:
	mkdir -p .bench-fresh .serve-smoke
	$(GO) run ./cmd/paper -benchjson .bench-fresh
	$(GO) run ./cmd/paper -benchdist .bench-fresh/BENCH_dist.json
	$(GO) build -o .serve-smoke/busencd ./cmd/busencd
	$(GO) run ./cmd/busencload -spawn .serve-smoke/busencd -tenants 32 -duration 5s -benchjson .bench-fresh/BENCH_serve.json
	$(GO) run ./cmd/benchguard -baseline . -fresh .bench-fresh
