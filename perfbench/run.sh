#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload ingest-wiki --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temp files, the binary, the stores
# of the workloads (removed at exit) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# Keep the Go tool's caches, config and telemetry inside the checkout and
# off the network.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS="-mod=mod -buildvcs=false" \
	go -C "$root/perfbench" build -o "$build/perfbench" . >&2

TMPDIR="$build/tmp" exec "$build/perfbench" --root "$root" "$@"
