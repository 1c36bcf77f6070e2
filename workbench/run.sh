#!/usr/bin/env bash
# Builds the workload benchmark from the checkout's sources and runs it.
# Run it from the repository root; every argument is passed through:
#
#   bash workbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#   bash workbench/run.sh compare base.jsonl current.jsonl
#
# Everything the build and the run write stays under .bench_build/ at
# the root (Go build cache, the binary, temp journals, span files).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/workbench" && go build -o "$build/workbench" .)

if [ "${1:-}" = compare ]; then
	exec "$build/workbench" "$@"
fi
exec "$build/workbench" --trace-dir "$build" "$@"
