# Developer entry points. `make check` is the full gate: vet, build, tests
# with the race detector (the campaign worker pool runs simulations
# concurrently, one goroutine per machine with its kernel threads as step
# bodies on it, so races are a first-class failure mode, not a theoretical
# one), plus the event-heap oracle, the step-body differential test, the
# episode-order test and the steady-state allocation tests that guard the
# pooled substrate and the storm, and a short fuzz pass over the result
# codec's decoders.

GO ?= go

# Bench comparison inputs for bench-compare (override on the command line).
# BASE is the committed current-round baseline; NEW defaults to a scratch
# record so `make bench && make bench-compare` never dirties the baselines.
BASE ?= BENCH_3.json
NEW  ?= bench-new.json

# Coverage floor (percent of statements) for the campaign runtime and the
# metrics registry — the packages whose regressions CI must not let drift.
# Recorded from the suite at the time the gate was added; raise it as
# coverage grows, never lower it to make a failure go away.
COVER_FLOOR ?= 85.0

.PHONY: all check lint vet build test race substrate failure-paths service fleet-faults bench-harness fuzz-smoke cover determinism record-check smoke storm-smoke resume-smoke serve-smoke horde-smoke bench bench-smoke bench-compare reproduce clean

all: check

check: lint build test race substrate failure-paths service fleet-faults bench-harness fuzz-smoke

# lint: formatting is enforced, not advisory — gofmt drift fails the gate,
# and go vet runs under the same umbrella so `make lint` is the one cheap
# static pass CI and pre-commit hooks share. The docs guard fails when a
# tracked Markdown file that describes the current tree names a cmd/<name>
# directory that does not exist; the change log and the planning notes at
# the root record past and planned changes, so they may name tools that
# are gone and are left out of the guard.
lint:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	@tracked=$$(git ls-files -- 'cover.out' '*.out' 'bench-new.json' 2>/dev/null || true); \
	if [ -n "$$tracked" ]; then \
		echo "generated coverage/bench artifacts are committed:"; echo "$$tracked"; exit 1; fi
	@stale=$$(git ls-files -z -- README.md DESIGN.md EXPERIMENTS.md ROADMAP.md \
		PAPER.md PAPERS.md SNIPPETS.md '*/*.md' 2>/dev/null | \
		xargs -0 -r grep -ohE 'cmd/[A-Za-z0-9_-]+' | sort -u | \
		while read -r d; do [ -d "$$d" ] || echo "$$d"; done); \
	if [ -n "$$stale" ]; then \
		echo "Markdown names cmd/ directories that do not exist:"; echo "$$stale"; exit 1; fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# substrate: the pooled-event-heap oracle property test, the kernel's
# step-body differential test (random thread programs as step bodies
# against the blocking CreateThread reference) and its episode-order test
# (the per-kind episode queues against a model of one pending list) under
# -race, plus the zero-allocation tests without -race: the engine's
# (AllocsPerRun is meaningless under the race detector's instrumented
# allocator, so those tests skip themselves there and must also run
# uninstrumented) and the interrupt storm's, which counts heap allocations
# per offered packet in steady state.
substrate:
	$(GO) test -race -run 'TestWheelMatchesReferenceEngine|TestEngineHeapMatchesOracle|TestEngineFIFOUnderPooling|TestEngineCancelDuringBatch|TestEngineSameInstantScheduleDuringBatch|TestEngineRunUntilBoundary' ./internal/sim/
	$(GO) test -race -run 'TestStepBodiesMatchBlockingReference|TestEpisodeQueuesKeepAdmissionOrder' ./internal/kernel/
	$(GO) test -run 'TestEngineSteadyStateAllocFree|TestWheelSteadyStateAllocFree' ./internal/sim/
	$(GO) test -run 'TestStormSteadyStateAllocFree' ./internal/workload/

# failure-paths: the campaign runner's fault-tolerance suite under -race —
# panic isolation, graceful cancellation with checkpoint flush, resume
# byte-identity, the collect-twice / callback-ordering regressions, and
# campaign.Stream's drain-then-return on a failed cell. These tests
# interleave cancellation with worker publication, so the race detector is
# load-bearing here, not belt-and-braces.
failure-paths:
	$(GO) test -race -run 'TestPanicking|TestCancelled|TestResume|TestCollectTwice|TestOnCellDone|TestCheckpointRestore|TestStream' ./internal/campaign/...

# service: the campaign-service suite under -race — server admission /
# overload / dedup / shutdown-drain paths, client retry/backoff and
# resumable watch, and the end-to-end byte-identity guarantee (server
# result bytes == local campaign bytes, cold and warm cache). The server
# interleaves HTTP handlers, executor goroutines and campaign workers, so
# -race is load-bearing here too.
service:
	$(GO) test -race ./internal/api/... ./internal/server/... ./internal/client/...

# fleet-faults: the coordinator fault-injection suite and the sharding
# determinism property under -race — silent workers, corrupt payloads,
# stale completions, drain with leases outstanding, and byte-identity
# of the merged stream across fleet sizes 1..16 with seeded churn. These
# overlap `service` (which runs the whole packages) but are named here so
# the distributed-execution guarantees have their own failing gate, plus
# the backoff-schedule pin the worker loop shares with the HTTP client.
fleet-faults:
	$(GO) test -race -run 'TestCoordinator|TestFleetSharding|TestFleetHTTP|TestJournal|TestServerResumes|TestServerDoesNotResume' ./internal/server/
	$(GO) test -race -run 'TestBackoff|TestWorker|TestRunWorker' ./internal/client/

# bench-harness: the end-to-end benchmark's own module (bench/, see
# bench/README.md) compiles against the internal APIs, so vet it and run
# its short tests here; tier-1 `go test ./...` at the root never sees it.
bench-harness:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz-smoke: ten seconds of native Go fuzzing per decoder of untrusted
# result bytes — core.DecodeResult (checkpoint files and worker
# completions) and the histogram parser beneath it. Each target asserts the
# decoder never panics and that any input it accepts re-encodes to exactly
# itself; the seed corpus is the codec's differential-test documents, whole,
# truncated and with a byte flipped. go test fuzzes one target per run.
# Minimizing is off: shrinking one interesting multi-KB document took
# longer than the whole pass, which then tried about a hundred inputs
# instead of over a hundred thousand. A failing input is still saved under
# the package's testdata/fuzz/, unminimized, and reruns as a plain test.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 10s -fuzzminimizetime 0s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramJSON$$' -fuzztime 10s -fuzzminimizetime 0s ./internal/stats/

# cover: the coverage gate for the campaign runtime, the metrics registry,
# (since fleet mode) the service wire types and the server — coordinator
# state machine included — and (since the storm frontier) the sweep engine
# and its livelock criterion. Produces cover.out (the CI job uploads it)
# and fails if total statement coverage over those packages drops below
# COVER_FLOOR. (internal/client is exercised mostly by internal/server's
# end-to-end tests, which per-package profiles do not credit, so it stays
# outside the floor's scope.)
cover:
	$(GO) test -coverprofile=cover.out ./internal/campaign/... ./internal/metrics/... ./internal/server/... ./internal/api/... ./internal/stats/... ./internal/frontier/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# determinism: the byte-identity contract as a runnable gate — the encoded
# result stream and every artifact must not depend on worker count or on
# whether cells were executed or replayed from the checkpoint store, in
# fixed-replica and adaptive (-precision) mode alike. On failure the
# divergent encodings are left in results-determinism/ for the post-mortem
# (the CI matrix uploads them as artifacts).
determinism:
	rm -rf results-determinism
	mkdir -p results-determinism
	$(GO) build -o results-determinism/reproduce ./cmd/reproduce
	results-determinism/reproduce -duration 10s -jobs 1 -outdir results-determinism/j1 \
		-encode results-determinism/j1.bin
	results-determinism/reproduce -duration 10s -jobs 8 -outdir results-determinism/j8 \
		-encode results-determinism/j8.bin
	cmp results-determinism/j1.bin results-determinism/j8.bin
	diff -r results-determinism/j1 results-determinism/j8
	results-determinism/reproduce -duration 10s -jobs 8 -checkpoint results-determinism/ckpt \
		-outdir results-determinism/cold -encode results-determinism/cold.bin
	results-determinism/reproduce -duration 10s -jobs 3 -checkpoint results-determinism/ckpt \
		-outdir results-determinism/warm -encode results-determinism/warm.bin
	cmp results-determinism/j1.bin results-determinism/cold.bin
	cmp results-determinism/cold.bin results-determinism/warm.bin
	results-determinism/reproduce -duration 10s -jobs 1 -precision 0.2 -max-runs 12 \
		-outdir results-determinism/adp1 -encode results-determinism/adp1.bin
	results-determinism/reproduce -duration 10s -jobs 8 -precision 0.2 -max-runs 12 \
		-outdir results-determinism/adp8 -encode results-determinism/adp8.bin
	cmp results-determinism/adp1.bin results-determinism/adp8.bin
	diff -r results-determinism/adp1 results-determinism/adp8
	@echo "determinism: streams byte-identical across -jobs, warm store, and adaptive mode"
	rm -rf results-determinism

# record-check: the published record as a gate — regenerate both records
# with the flags results/README.md names and diff them against results/
# (its README.md aside). `make determinism` only compares runs of one build
# with each other; this catches code, toolchain or platform drift from the
# committed bytes. results-record-check is removed on success and left
# behind on failure for the post-mortem.
record-check:
	rm -rf results-record-check
	mkdir -p results-record-check
	$(GO) build -o results-record-check/reproduce ./cmd/reproduce
	$(GO) build -o results-record-check/stormsweep ./cmd/stormsweep
	results-record-check/reproduce -duration 30m -runs 3 -seed 3 -outdir results-record-check/record
	results-record-check/stormsweep -duration 60s -runs 3 -seed 7 -outdir results-record-check/record
	diff -r -x README.md results results-record-check/record
	@echo "record-check: both records byte-identical to results/"
	rm -rf results-record-check

# smoke: a fast end-to-end pass of the full reproduction pipeline on the
# parallel campaign runner, with the observability surface on: progress to
# stderr, a checkpoint store, and a telemetry snapshot that must show the
# campaign actually counted its cells and checkpoints. The scratch
# directory is removed on success so CI runners (and developers) stay
# clean; it is left behind on failure for the post-mortem.
smoke:
	rm -rf results-smoke
	$(GO) run ./cmd/reproduce -duration 5s -jobs 4 -outdir results-smoke -progress \
		-checkpoint results-smoke/ckpt -telemetry results-smoke/telemetry.json
	@grep -q '"campaign_cells_completed": [1-9]' results-smoke/telemetry.json || \
		{ echo "smoke: telemetry has no completed cells"; exit 1; }
	@grep -q '"store_writes": [1-9]' results-smoke/telemetry.json || \
		{ echo "smoke: telemetry has no checkpoint writes"; exit 1; }
	@echo "smoke: telemetry snapshot has nonzero cell and checkpoint counters"
	rm -rf results-smoke

# storm-smoke: a fast end-to-end pass of the interrupt-storm frontier
# pipeline — a short checkpointed sweep, a warm-store re-run at a different
# worker count that must reproduce the artifacts byte for byte, and a
# telemetry snapshot that must show the sweep actually probed, saturated
# and located knees. The scratch directory is removed on success and left
# behind on failure for the post-mortem.
storm-smoke:
	rm -rf results-storm-smoke
	mkdir -p results-storm-smoke
	$(GO) build -o results-storm-smoke/stormsweep ./cmd/stormsweep
	results-storm-smoke/stormsweep -duration 2s -runs 2 -seed 7 \
		-min-pps 16384 -max-pps 262144 -bisect 2 -jobs 4 \
		-checkpoint results-storm-smoke/ckpt -outdir results-storm-smoke/cold \
		-telemetry results-storm-smoke/telemetry.json
	results-storm-smoke/stormsweep -duration 2s -runs 2 -seed 7 \
		-min-pps 16384 -max-pps 262144 -bisect 2 -jobs 1 \
		-checkpoint results-storm-smoke/ckpt -outdir results-storm-smoke/warm
	diff -r results-storm-smoke/cold results-storm-smoke/warm
	@grep -q '"frontier_probes": [1-9]' results-storm-smoke/telemetry.json || \
		{ echo "storm-smoke: telemetry has no frontier probes"; exit 1; }
	@grep -q '"frontier_saturated_probes": [1-9]' results-storm-smoke/telemetry.json || \
		{ echo "storm-smoke: no probe saturated"; exit 1; }
	@grep -q '"frontier_knees": [1-9]' results-storm-smoke/telemetry.json || \
		{ echo "storm-smoke: no knee located"; exit 1; }
	@nt=$$(awk '$$1 == "nt4/per-assert" && $$3 == "pps" {print $$2; exit}' results-storm-smoke/cold/frontier.txt); \
	w98=$$(awk '$$1 == "win98/per-assert" && $$3 == "pps" {print $$2; exit}' results-storm-smoke/cold/frontier.txt); \
	echo "storm-smoke: knees nt4=$$nt pps, win98=$$w98 pps"; \
	awk -v a="$$w98" -v b="$$nt" 'BEGIN { exit (a+0 > 0 && a+0 < b+0) ? 0 : 1 }' || \
		{ echo "storm-smoke: Win98 knee not strictly below NT4 knee"; exit 1; }
	@echo "storm-smoke: warm-store artifacts byte-identical; knees ordered; telemetry shows probes, saturation and knees"
	rm -rf results-storm-smoke

# resume-smoke: kill a checkpointed campaign mid-flight with SIGINT, resume
# it from the checkpoint store, and demand the resumed artifacts be
# byte-identical to an uninterrupted run at a different worker count. The
# interrupted invocation exits non-zero by design (timeout reports 124), so
# it is prefixed with `-`. Timings: the full campaign takes ~7 s of wall
# clock at -jobs 2, so a 3 s SIGINT lands mid-campaign with some cells
# checkpointed and some cancelled.
resume-smoke:
	rm -rf results-resume-smoke
	mkdir -p results-resume-smoke
	$(GO) build -o results-resume-smoke/reproduce ./cmd/reproduce
	-timeout -s INT 3 results-resume-smoke/reproduce -duration 150s -runs 2 -jobs 2 \
		-checkpoint results-resume-smoke/ckpt -outdir results-resume-smoke/resumed
	results-resume-smoke/reproduce -duration 150s -runs 2 -jobs 2 \
		-checkpoint results-resume-smoke/ckpt -outdir results-resume-smoke/resumed
	results-resume-smoke/reproduce -duration 150s -runs 2 -jobs 4 \
		-outdir results-resume-smoke/full
	diff -r results-resume-smoke/resumed results-resume-smoke/full
	@echo "resume-smoke: resumed artifacts byte-identical to uninterrupted run"
	rm -rf results-resume-smoke

# serve-smoke: end-to-end campaign-service smoke — start latserved, submit
# via latctl, diff the fetched result against a local cmd/reproduce run
# (byte identity), assert duplicate submissions dedup, then restart the
# server on the same cache directory and assert the re-served result is a
# pure cache hit (0 cells executed) via /metrics.
serve-smoke:
	./scripts/serve_smoke.sh

# horde-smoke: distributed-fleet smoke — latserved -fleet coordinating 4
# real latworkd processes, one SIGKILLed mid-campaign, and the merged
# result byte-compared against a single-process cmd/reproduce run. The
# /metrics counters must show the worker expired and its cells
# re-dispatched, proving the loss path actually ran.
horde-smoke:
	./scripts/horde_smoke.sh

# bench: record the substrate and experiment benchmarks into $(NEW). Compare
# against the committed previous-round baseline $(BASE) with bench-compare.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . > $(NEW)

# bench-smoke: one iteration of every benchmark — asserts the benches still
# compile and run, without the cost of a measured pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem . > /dev/null

# bench-compare: enforce the perf-regression policy (>10% ns/op or any
# allocs/op growth fails) between two bench records.
bench-compare:
	$(GO) run ./cmd/benchdiff -base $(BASE) -new $(NEW)

# reproduce: regenerate the checked-in full-length experimental record.
# These flags are the record's provenance — results/ headers embed them, and
# `git diff --exit-code results/` after this target is the determinism gate.
reproduce:
	$(GO) run ./cmd/reproduce -duration 30m -runs 3

clean:
	rm -rf results-smoke results-resume-smoke results-serve-smoke results-horde-smoke results-storm-smoke results-record-check results-determinism cover.out bench-new.json latserved-cache latworkd-cache
