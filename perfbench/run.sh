#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this file
# and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product, cache directory and scratch file goes under
# .bench_build/ at the checkout root, so the benchmark reads and writes only
# inside its checkout. A failed build exits non-zero before any result line.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
