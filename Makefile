# Tier-1 verification plus the race-checked variant the concurrency in
# internal/eval requires. `make check` is the gate every change should pass.

GO ?= go

.PHONY: check fmt vet staticcheck build test bench-smoke race race-telemetry race-coap race-hub race-cluster race-drift race-timing race-scenarios bench bench-scan bench-eval bench-cluster bench-drift bench-timing bench-scenarios fuzz-smoke perf-gate

check: fmt vet staticcheck build bench-smoke race-telemetry race-coap race-hub race-cluster race-drift race-timing race-scenarios race fuzz-smoke perf-gate

# gofmt covers the whole tree, the nested perfbench module included.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional tooling: run it when the binary is on PATH, skip
# with a notice otherwise so `make check` works in hermetic containers.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module (replace repro => ../), so the root vet and
# test never build it. Vet it and run its smoke test here, so an internal
# API change cannot silently break the benchmark. One iteration of each
# ingest-path micro-benchmark (CoAP codec, client and exchange cache,
# gateway, WAL, window builder) and of the detector's per-window
# benchmarks (core) runs too, so they cannot rot unnoticed either.
bench-smoke:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/coap/ ./internal/core/ ./internal/gateway/ ./internal/wal/ ./internal/window/

# The evaluation harness fans trials across goroutines; always race-check it.
race:
	$(GO) test -race ./...

# Fast focused gate on the metrics registry: every pipeline stage hammers
# these counters concurrently, so its race tests run first and by name.
race-telemetry:
	$(GO) test -race -count 2 ./internal/telemetry/

# The CoAP server's read loop and worker pool share the dedup cache: the
# workers write value-typed entries back into the map under the server
# lock, so a dropped lock there fails this gate by name.
race-coap:
	$(GO) test -race -count 2 ./internal/coap/

# The multi-tenant hub is the most concurrency-dense package (sharded
# worker pool, shard workers blocking on the alert buffer while drains,
# checkpoints and eviction race ingestion, Close and Kill releasing them);
# gate it by name.
race-hub:
	$(GO) test -race ./internal/hub/...

# The federated cluster's seeded chaos drill: three nodes, dropped and
# slowed links, one partition, one live migration, one SIGKILL mid-ingest —
# every home must end bit-identical to a solo gateway, race-checked.
race-cluster:
	$(GO) test -race -run 'TestCluster' ./internal/cluster/

# Online-adaptation drill under the race detector: adapter admission and
# decay, plus the gateway's adapt → checkpoint → restore → rollback path,
# which must reproduce detector output and Explain traces bit for bit.
race-drift:
	$(GO) test -race -run 'Adapt' ./internal/core/ ./internal/gateway/

# Timing-check drill under the race detector: the pluggable check pipeline,
# interval-sketch reinforcement, and the checkpoint path that must resume
# dwell/last-fire state bit for bit.
race-timing:
	$(GO) test -race -run 'Timing' ./internal/core/ ./internal/gateway/ ./internal/faults/

# Multi-fault drill under the race detector: concurrent identification
# episodes, the scenario pipeline (ghosts, replays, occupancy views), and
# the mid-storm checkpoint kill that must resume two open episodes bit for
# bit.
race-scenarios:
	$(GO) test -race -run 'MultiFault|Scenario|Occupancy|Ghost' ./internal/core/ ./internal/gateway/ ./internal/faults/ ./internal/simhome/

# Full benchmark sweep (regenerates every table/figure on the scaled-down
# protocol).
bench:
	$(GO) test -bench . -benchtime 1x -run TestBenchFixtures .

# Perf-trajectory benches for the PR acceptance numbers.
bench-scan:
	$(GO) test -bench 'BenchmarkScan$$' -run TestBenchFixtures .

bench-eval:
	$(GO) test -bench 'BenchmarkEvaluateParallel$$' -benchtime 2x -run TestBenchFixtures .
	$(GO) run ./cmd/dice-eval -exp latency -trials 8 -out BENCH_eval.json

# Federated cluster drill: migration + node-kill fail-over latency and
# cluster-vs-solo efficiency → BENCH_cluster.json.
bench-cluster:
	$(GO) run ./cmd/dice-eval -exp cluster -out BENCH_cluster.json

# Online-adaptation drill: static vs adaptive detector on a drifted stream,
# plus post-adaptation fault injection → BENCH_drift.json. The run itself
# errors when the adaptive arm misses a fault or fails to beat the static
# arm's false alarms (floors declared on the record).
bench-drift:
	$(GO) run ./cmd/dice-eval -exp drift -out BENCH_drift.json

# Timing-check drill: structural-only vs timing-aware arms on stream-stretch
# faults → BENCH_timing.json. The run itself errors when the timing arm
# catches <80% of the structurally missed faults or flags any clean window.
bench-timing:
	$(GO) run ./cmd/dice-eval -exp timing -out BENCH_timing.json

# Adversarial scenario library: per-scenario detection/identification
# precision-recall + benign false-alarm floor → BENCH_scenarios.json. The
# run itself errors on any clean/benign false alarm or when 2-fault storms
# name every injected device in <80% of trials.
bench-scenarios:
	$(GO) run ./cmd/dice-eval -exp scenarios -out BENCH_scenarios.json

# Short fuzz passes over the wire decoders (binary batch + CoAP), the
# interval-sketch codec, the WAL segment reader, the checkpoint and
# context envelopes, and the adapter state a checkpoint restores. Long campaigns run the same targets with a bigger
# -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatch$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzMessageUnmarshal$$' -fuzztime 5s ./internal/coap/
	$(GO) test -run '^$$' -fuzz 'FuzzIntervalSketch$$' -fuzztime 5s ./internal/markov/
	$(GO) test -run '^$$' -fuzz 'FuzzSegment$$' -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/gateway/
	$(GO) test -run '^$$' -fuzz 'FuzzLoadContext$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzAdapterState$$' -fuzztime 5s ./internal/core/

# CI perf gate: regenerate the cluster, drift, timing and scenario records
# into a private temp dir and check each against its committed
# BENCH_*.json with dice-benchdiff. Each record declares its own floors and
# bounds; every gated figure is a same-process ratio or a deterministic
# count, not raw events/sec, so the gate is stable across machines of
# different speeds.
perf-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for e in cluster drift timing scenarios; do \
		$(GO) run ./cmd/dice-eval -exp $$e -out $$tmp/$$e.json >/dev/null && \
		$(GO) run ./cmd/dice-benchdiff -baseline BENCH_$$e.json -fresh $$tmp/$$e.json || exit 1; \
	done
