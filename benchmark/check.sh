#!/usr/bin/env bash
# The gate for this directory. benchmark/ is a module of its own, so the
# root `go build ./...`, `go vet ./...`, `go test ./...` and `make verify`
# do not see it; this runs the same checks on it: gofmt, vet, and the
# tests (unit tests, the replay-against-Peer.Query test, a toy-scale smoke
# run of every workload) under the race detector. A refactor of an
# internal package that the traced pass calls fails here at compile time.
set -euo pipefail
cd "$(dirname "$0")"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi
go vet .
go test -race -count=1 .
