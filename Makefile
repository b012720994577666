# Tier-1 verification gate (see ROADMAP.md): every PR must leave
# `make verify` green.

GO ?= go

.PHONY: verify build fmt vet test race chaos bench-check bench fanout bench-telemetry bench-monitor bench-faults bench-serving bench-hotspot bench-rebalance bench-ingest cover

verify: build fmt vet race chaos bench-check

build:
	$(GO) build ./...

# Formatting gate: gofmt -l prints unformatted files; any output fails.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	$(GO) vet -structtag -copylocks ./internal/telemetry/ ./internal/pnet/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos regression suite: seeded fault injection against the transport,
# the BATON overlay, the serving tier (shedding under injected backend
# slowness), and the full system (failover on injected faults).
# Deterministic — every fault decision replays from fixed seeds — and
# bounded by the timeout so a reintroduced hang fails instead of
# wedging CI.
chaos:
	$(GO) test -race -count=1 -timeout 120s -run 'TestChaos' ./internal/pnet/ ./internal/baton/ ./internal/serving/ ./internal/sqldb/ .

# The repo's benchmark (benchmark/, BENCHMARK.json) is a nested module
# the targets above do not see: gofmt, vet and its tests (a toy-scale
# smoke run of every workload included) under the race detector. This is
# the compile gate for everything the benchmark uses of the program.
bench-check:
	bash benchmark/check.sh

# Regenerate the paper's figures (virtual-time, deterministic).
bench:
	$(GO) run ./cmd/bpbench

# Wall-clock fan-out comparison; refreshes the trajectory file.
fanout:
	$(GO) run ./cmd/bpbench -fig fanout | tee BENCH_fanout.json

# Wall-clock telemetry instrumentation overhead on the fig-6 workload;
# refreshes the trajectory file. Expected overhead_pct < 2.
bench-telemetry:
	$(GO) run ./cmd/bpbench -fig telemetry | tee BENCH_telemetry.json

# Wall-clock monitoring-plane overhead (reporter loops + bootstrap
# collector) on the fig-6 workload; refreshes the trajectory file.
# Expected overhead_pct < 2.
bench-monitor:
	$(GO) run ./cmd/bpbench -fig monitor | tee BENCH_monitor.json

# Wall-clock overhead of the hardened RPC path (deadline guard + retry
# policy, faults off) over the bare path on the fig-6 workload;
# refreshes the trajectory file. Expected overhead_pct < 2 with
# retries = timeouts = 0.
bench-faults:
	$(GO) run ./cmd/bpbench -fig faults | tee BENCH_faults.json

# Serving-tier saturation: 1k+ real concurrent client sessions against
# a live in-process cluster, result cache off then on; appends to the
# trajectory file. Expected: interactive p99 bounded by the shed budget
# among admitted queries, shed_total > 0 at saturation, and
# cache_speedup > 1 on the repeated-query mix.
bench-serving:
	$(GO) run ./cmd/bpbench -fig serving | tee -a BENCH_serving.json

# Heat-plane acceptance: Zipfian shipdate windows must raise a hotspot
# event, a uniform workload must stay quiet, and the heat plane's
# kill-switch overhead on the fig-6 workload must stay < 2%; refreshes
# the trajectory file. Also runs the mitigation A/B (see
# bench-rebalance below — same figure, same file).
bench-hotspot:
	$(GO) run ./cmd/bpbench -fig hotspot | tee BENCH_hotspot.json

# Heat-response acceptance: the flash-crowd mitigation A/B. Expected:
# mit_on_hot_share near 1/(k+1)=0.33 (vs 1.0 off), mit_on_p99_ms and
# mit_on_qps better than off, results_match = true (replicated reads
# change no answers), armed_quiet = true (the armed daemon fires
# nothing on a uniform workload). Alias of bench-hotspot — the A/B
# lives in the same figure so its arms share the detection networks.
bench-rebalance: bench-hotspot

# Continuous-ingest acceptance: CDC refresh must beat snapshot-diff
# passes at low churn (cdc_speedup > 1) with bit-identical query
# results (results_identical = true), and serving entries over tables
# the ingest never touches must keep hitting while sync rounds race
# the query stream (unrelated_misses stays at the warm-up count).
bench-ingest:
	$(GO) run ./cmd/bpbench -fig ingest | tee BENCH_ingest.json

# Per-package statement coverage (not part of the verify gate; the
# baseline lives in EXPERIMENTS.md).
cover:
	$(GO) test -count=1 -cover ./... | grep -v 'no test files'
