#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds bench/e2e from source and
# runs it. Everything the Go tool and the benchmark write — build cache,
# module cache, telemetry counters, scratch space, WAL directories —
# stays under .bench_build in the checkout; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
