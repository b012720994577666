#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it with the caller's flags. Run from the repository root. Everything
# the go command writes (build cache, temp files, its own config and
# counters) is pointed inside .bench_build/, so nothing lands outside the
# checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOFLAGS= \
	go build -C benchmark -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bpbenchmark" .
exec "$build/bpbenchmark" "$@"
