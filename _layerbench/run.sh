#!/usr/bin/env bash
# Builds the layered benchmark from the enclosing checkout's sources and
# runs it with the given arguments. Everything it writes (Go build cache,
# binary, work files, result and span logs) stays under .bench_build at
# the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/layerbench" .)
exec "$build/layerbench" -workdir "$build/work" -results "$build/results.jsonl" -spans "$build/spans" "$@"
