#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run it from the repository root. Everything the build leaves behind lands
# in .bench_build/ (ignored by git), including the Go build and module
# caches, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a checkout of the whole repository" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/stark-bench" .
exec "$build/stark-bench" "$@"
