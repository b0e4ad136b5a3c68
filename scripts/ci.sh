#!/usr/bin/env bash
# CI gate for every PR: build, vet, gofmt, race-enabled tests (the cdlab
# end-to-end tests in cmd/cdlab included), a run of every example, a
# repeated race pass (the shard cache's pooled gob decoders and the
# LocalRunner included),
# WAL, survival-skip, loose-log, zero-row-bound and commit-skip fuzz
# passes, a hammer fast-forward fuzz pass (sequences of one to three
# patterns against literal commands), a shard-cache codec fuzz pass (pooled and
# fresh gob decoders agree on mutated entries), a compile-and-run pass
# over every benchmark (one iteration each) and a perf-trajectory
# snapshot.
#
# Usage: scripts/ci.sh [extra go-test flags...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== perfbench build + vet =="
# perfbench is its own module (replace columndisturb => ../), so the root
# ./... never reaches it; it imports engine, dispatch and service types.
(cd perfbench && go build -o /dev/null ./... && go vet ./...)

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race =="
go test -race "$@" ./...

echo "== examples: build and run each program =="
# A facade change that compiles can still fail at run time; every example
# runs in well under a second.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

echo "== repeated race: shard scheduling, the WAL, the cache codec, the local runner, remote clients and the cdlab processes =="
# The shard loop, the dispatch queue, the service's job lifecycle, the
# WAL's single lock, the cache codec's decoder pool, the LocalRunner
# (NewLocalRunner starts the dispatcher and service goroutines) and the
# remote client and worker loops share goroutines and settle-order
# invariants, and the end-to-end tests race real processes; a flake there
# may show in only one run out of many, so repeat them.
go test -race -count=3 . ./internal/engine ./internal/dispatch ./internal/wal ./internal/cache ./internal/service ./client ./cmd/cdlab

echo "== wal decoder fuzz (committed corpus + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzReplaySegment -fuzztime 5s ./internal/wal

echo "== survival quadrature skip fuzz (committed corpus + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzSurvivalRowSkip -fuzztime 5s ./internal/core

echo "== loose log kernel fuzz (seed inputs + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzLooseLog -fuzztime 5s ./internal/core

echo "== counts sampler zero-row bound fuzz (seed inputs + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzZeroRowBound -fuzztime 5s ./internal/core

echo "== cell-explicit commit skip fuzz (committed corpus + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzCommitFaults -fuzztime 5s ./internal/dram

echo "== hammer fast-forward pattern sequences vs literal commands fuzz (seed inputs + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzHammerMatchesLiteral -fuzztime 5s ./internal/dram

echo "== cache codec fuzz: pooled vs fresh gob decoders (seed inputs + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzGobDecode -fuzztime 5s ./internal/cache

echo "== benchmarks (1 iteration) =="
go test -run xxx -bench . -benchtime 1x "$@" ./...

echo "== benchjson: perf-trajectory snapshot =="
# Every revision can emit a parseable BENCH_<rev>.json; the check gate
# fails if a trajectory benchmark (RunAll{Serial,Parallel,WarmCache})
# stops emitting. Commit the snapshot on tentpole PRs to grow the
# tracked perf history. The snapshot measures the working tree, so a tree
# that differs from HEAD (tracked changes or untracked files, earlier
# snapshots aside) names it BENCH_<rev>-dirty.json: only a clean tree's
# numbers carry the bare revision label.
rev=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain -- . ':(exclude)BENCH_*.json')" ]; then
    rev="${rev}-dirty"
fi
go run ./scripts/benchjson -rev "$rev" -out "BENCH_${rev}.json"
go run ./scripts/benchjson -check "BENCH_${rev}.json"

echo "CI OK"
