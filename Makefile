# Tier-1 verification gate (see ROADMAP.md): every PR must leave
# `make verify` green.

GO ?= go

.PHONY: verify build fmt vet test race chaos bench-check bench cover lines

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

# Per-package statement coverage (not part of the verify gate; the
# baseline lives in EXPERIMENTS.md).
cover:
	$(GO) test -count=1 -cover ./... | grep -v 'no test files'

# Non-test Go lines per package directory and in total, outside the
# benchmark/ module (find ... ! -name '*_test.go' | xargs cat | wc -l):
# the size figure deletion changes report. Not part of the verify gate.
lines:
	@for d in $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs -n1 dirname | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) "$$d"; done
	@printf '%7d total\n' $$(find . -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)
