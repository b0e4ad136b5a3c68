#!/usr/bin/env bash
# CI gate for every PR: build, vet, race-enabled tests, and a compile-and-
# run pass over every benchmark (one iteration each, so the experiment
# runners stay executable without turning CI into a perf run).
#
# Usage: scripts/ci.sh [extra go-test flags...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race =="
go test -race "$@" ./...

echo "== bitset: focused vet + race (hot-loop membership sets) =="
# The dense bitsets back every per-readout-bit membership probe in the
# characterization pipeline and are shared read-only across shard
# goroutines; keep an explicit vet + race pass on them even if the
# package lists above are ever narrowed.
go vet ./internal/bitset
go test -race -count=2 ./internal/bitset

echo "== wal decoder fuzz (committed corpus + 5s of new inputs) =="
go test -run '^$' -fuzz FuzzReplaySegment -fuzztime 5s ./internal/wal

echo "== benchmarks (1 iteration) =="
go test -run xxx -bench . -benchtime 1x "$@" ./...

echo "== benchjson: perf-trajectory snapshot =="
# Every revision can emit a parseable BENCH_<rev>.json; the check gate
# fails if a trajectory benchmark (RunAll{Serial,Parallel,WarmCache})
# stops emitting. Commit the snapshot on tentpole PRs to grow the
# tracked perf history.
rev=$(git rev-parse --short HEAD)
go run ./scripts/benchjson -out "BENCH_${rev}.json"
go run ./scripts/benchjson -check "BENCH_${rev}.json"

echo "== cdlab smoke: shared pool + shard cache =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/cdlab" ./cmd/cdlab

# Cold sweep populates the cache; the warm sweep must be served entirely
# from it (no "cached":false shard event) and write byte-identical reports.
"$tmp/cdlab" run all -j 2 -o "$tmp/out1" -cache-dir "$tmp/cache" > /dev/null
# The cold sweep's report files must match the committed golden hashes
# (TestSerialParallelBitIdentical checks the same file in-process); the
# first line is the resultSchemaVersion header.
golden="$PWD/internal/experiments/testdata/golden/small.sha256"
tail -n +2 "$golden" | (cd "$tmp/out1" && sha256sum -c --quiet -)
"$tmp/cdlab" run all -j 2 -o "$tmp/out2" -cache-dir "$tmp/cache" -json \
    > "$tmp/events-all.jsonl" 2> "$tmp/warm-stderr.txt"
if grep -q '"cached":false' "$tmp/events-all.jsonl"; then
    echo "warm cdlab run recomputed shards:" >&2
    grep '"cached":false' "$tmp/events-all.jsonl" | head -5 >&2
    exit 1
fi
grep -q '"cached":true' "$tmp/events-all.jsonl"
grep -q ', 0 misses' "$tmp/warm-stderr.txt"
diff -r "$tmp/out1" "$tmp/out2"

echo "== cdlab smoke: JSONL event schema =="
"$tmp/cdlab" run fig6 -json | go run ./scripts/eventcheck
go run ./scripts/eventcheck < "$tmp/events-all.jsonl"

echo "== cdlab smoke: unknown IDs rejected before any work =="
rc=0
"$tmp/cdlab" run fig6 no-such-experiment -o "$tmp/should-not-exist" 2> "$tmp/unknown-err.txt" || rc=$?
[ "$rc" -eq 2 ] || { echo "unknown-ID exit status $rc, want 2" >&2; exit 1; }
grep -q no-such-experiment "$tmp/unknown-err.txt"
[ ! -e "$tmp/should-not-exist" ] || { echo "work started despite unknown ID" >&2; exit 1; }

echo "== cdlab smoke: client-serve roundtrip =="
port=18517
"$tmp/cdlab" serve -addr "127.0.0.1:$port" -j 2 -cache-dir "$tmp/serve-cache" \
    2> "$tmp/serve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done

# A remote run must render byte-identical reports to the same request run
# locally (same profile and overrides resolve to the same config digest).
"$tmp/cdlab" run fig6 table1 -remote "127.0.0.1:$port" -set seed=7 -o "$tmp/remote-out"
"$tmp/cdlab" run fig6 table1 -set seed=7 -o "$tmp/local-out" -cache-dir "$tmp/local-cache" > /dev/null
diff -r "$tmp/remote-out" "$tmp/local-out"

# A repeat remote run is served entirely from the server's shard cache
# (zero recomputation) and its /v1 event stream passes the schema gate.
"$tmp/cdlab" run fig6 table1 -remote "127.0.0.1:$port" -set seed=7 -json -o "$tmp/remote-out2" \
    > "$tmp/events-remote.jsonl" 2> /dev/null
if grep -q '"cached":false' "$tmp/events-remote.jsonl"; then
    echo "warm remote run recomputed shards:" >&2
    grep '"cached":false' "$tmp/events-remote.jsonl" | head -5 >&2
    exit 1
fi
grep -q '"cached":true' "$tmp/events-remote.jsonl"
grep -q '"v":1' "$tmp/events-remote.jsonl"
go run ./scripts/eventcheck < "$tmp/events-remote.jsonl"
diff -r "$tmp/remote-out" "$tmp/remote-out2"
kill "$serve_pid"

echo "== cdlab smoke: distributed dispatch (two workers, kill one mid-run) =="
dport=18523
# -no-local-shards makes the serve process a pure scheduler: every shard
# MUST flow through a worker lease, so this smoke cannot silently pass on
# local execution. The short lease TTL keeps the kill-recovery fast.
"$tmp/cdlab" serve -addr "127.0.0.1:$dport" -j 2 -no-local-shards -lease-ttl 2s \
    -cache-dir "$tmp/dist-cache" 2> "$tmp/dist-serve.log" &
dist_pid=$!
"$tmp/cdlab" worker -connect "127.0.0.1:$dport" -j 2 -name smoke-w1 2> "$tmp/dist-w1.log" &
w1_pid=$!
disown "$w1_pid" # silences bash's "Killed" report for the deliberate SIGKILL below
"$tmp/cdlab" worker -connect "127.0.0.1:$dport" -j 2 -name smoke-w2 2> "$tmp/dist-w2.log" &
w2_pid=$!
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$dport") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done

# A sharded experiment fanned across two workers renders byte-identical
# reports to a pure-local serial run, every shard event names its worker,
# and the stream passes the schema gate (-require-worker: with
# -no-local-shards an unattributed computed shard is a scheduler bug).
"$tmp/cdlab" run fig6 fig11 table1 -remote "127.0.0.1:$dport" -json -o "$tmp/dist-out" \
    > "$tmp/events-dist.jsonl" 2> /dev/null
"$tmp/cdlab" run fig6 fig11 table1 -j 1 -o "$tmp/dist-local-out" > /dev/null
diff -r "$tmp/dist-out" "$tmp/dist-local-out"
grep -q '"worker":"' "$tmp/events-dist.jsonl"
if grep '"type":"shard_done"' "$tmp/events-dist.jsonl" | grep -v '"worker":"' | grep -q .; then
    echo "shards executed without a worker attribution despite -no-local-shards:" >&2
    grep '"type":"shard_done"' "$tmp/events-dist.jsonl" | grep -v '"worker":"' | head -3 >&2
    exit 1
fi
go run ./scripts/eventcheck -require-worker < "$tmp/events-dist.jsonl"

echo "== cdlab smoke: trace timeline of a settled distributed job =="
# Every job of the sweep must replay a complete span set: `cdlab trace`
# exits non-zero if a settled job has spans that never closed, and the
# rendering must attribute shards to workers and name the critical path.
for job in $(sed -n 's/.*"type":"job_queued".*"job":"\([^"]*\)".*/\1/p' "$tmp/events-dist.jsonl"); do
    "$tmp/cdlab" trace "$job" -remote "127.0.0.1:$dport" > "$tmp/trace-$job.txt"
done
grep -q 'critical path:' "$tmp/trace-$job.txt"
grep -q 'workers:' "$tmp/trace-$job.txt"
grep -q 'leased worker=' "$tmp/trace-$job.txt"

# The workers listing sees both attached workers, with completion stats
# from the sweep that just ran.
"$tmp/cdlab" workers -remote "127.0.0.1:$dport" > "$tmp/workers.txt"
grep -q smoke-w1 "$tmp/workers.txt"
grep -q smoke-w2 "$tmp/workers.txt"

# Kill one worker mid-run (SIGKILL: no dereg, the server must detect the
# silence and requeue its leases). The run must still complete with
# reports byte-identical to the earlier pure-local sweep. -no-cache keeps
# every shard a real computation, and the kill waits until BOTH worker
# identities have completed shards in this run's event stream — so the
# SIGKILL provably lands on a participating worker, not an idle one.
"$tmp/cdlab" run all -remote "127.0.0.1:$dport" -no-cache -json -o "$tmp/dist-out2" \
    > "$tmp/events-dist2.jsonl" 2> "$tmp/dist-run2.log" &
dist_run_pid=$!
for _ in $(seq 1 300); do
    if grep -q '"worker":"w1"' "$tmp/events-dist2.jsonl" 2>/dev/null \
        && grep -q '"worker":"w2"' "$tmp/events-dist2.jsonl" 2>/dev/null; then break; fi
    sleep 0.1
done
# Both dispatch identities must have completed shards: process→ID mapping
# is a registration race, so only "both participated" guarantees the
# SIGKILL below lands on a participating worker.
{ grep -q '"worker":"w1"' "$tmp/events-dist2.jsonl" && grep -q '"worker":"w2"' "$tmp/events-dist2.jsonl"; } || {
    echo "kill smoke: both workers never took shards; recovery path untested" >&2; exit 1; }

echo "== cdlab smoke: /v1/metrics scrape mid-run =="
# Scraped while the sweep is still executing: the export must be
# well-formed Prometheus text carrying every serve/dispatch family even
# under concurrent updates (the HTTP-level counterpart of the registry's
# -race tests).
go run ./scripts/promcheck -url "http://127.0.0.1:$dport/v1/metrics" \
    -require cdlab_jobs_total,cdlab_jobs_active,cdlab_jobs_pending,cdlab_job_ms,cdlab_shard_elapsed_ms,cdlab_shards_total,cdlab_backend_workers,cdlab_lease_wait_ms,cdlab_lease_to_complete_ms,cdlab_worker_tasks_total,cdlab_dispatch_queue_depth,cdlab_dispatch_workers,cdlab_cache_hits_total,cdlab_cache_mem_bytes,cdlab_jobs_coalesced_total,cdlab_jobs_recovered_total

kill -9 "$w1_pid" 2>/dev/null || true
wait "$dist_run_pid"
diff -r "$tmp/dist-out2" "$tmp/out1"
go run ./scripts/eventcheck -require-worker < "$tmp/events-dist2.jsonl"

echo "== cdlab smoke: formerly-serial experiments are multi-shard + warm-distributed zero-recompute =="
# These experiments used to run through the legacy serial Run path as one
# opaque pseudo-shard. Now they are real plans: every shard leases to the
# surviving worker, each experiment emits MULTIPLE shard events, and a
# warm re-run against the server's shard cache recomputes zero shards
# while writing byte-identical reports.
formerly_serial="fig21 fig22 fig23 sec61 ttf ablation-f ablation-bitline"
"$tmp/cdlab" run $formerly_serial -remote "127.0.0.1:$dport" -json -o "$tmp/fs-out1" \
    > "$tmp/events-fs1.jsonl" 2> /dev/null
for id in $formerly_serial; do
    n=$(grep '"type":"shard_done"' "$tmp/events-fs1.jsonl" | grep -c "\"experiment\":\"$id\"" || true)
    if [ "$n" -lt 2 ]; then
        echo "$id emitted $n shard events; expected a multi-shard plan" >&2
        exit 1
    fi
done
"$tmp/cdlab" run $formerly_serial -remote "127.0.0.1:$dport" -json -o "$tmp/fs-out2" \
    > "$tmp/events-fs2.jsonl" 2> /dev/null
if grep -q '"cached":false' "$tmp/events-fs2.jsonl"; then
    echo "warm distributed re-run recomputed formerly-serial shards:" >&2
    grep '"cached":false' "$tmp/events-fs2.jsonl" | head -5 >&2
    exit 1
fi
grep -q '"cached":true' "$tmp/events-fs2.jsonl"
diff -r "$tmp/fs-out1" "$tmp/fs-out2"
go run ./scripts/eventcheck < "$tmp/events-fs2.jsonl"
kill "$w2_pid" "$dist_pid" 2>/dev/null || true

echo "== cdlab smoke: WAL crash recovery (SIGKILL mid-run, restart, resume) =="
wport=18529
"$tmp/cdlab" serve -addr "127.0.0.1:$wport" -j 2 -cache-dir "$tmp/wal-cache" \
    2> "$tmp/wal-serve1.log" &
wal1_pid=$!
disown "$wal1_pid" # silences bash's "Killed" report for the deliberate SIGKILL below
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" "$wal1_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$wport") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done

# A patient client (big reconnect budget) sweeps the catalog; once at least
# three shards have genuinely computed — their results are in the on-disk
# cache, their settle records in the WAL — the server is SIGKILLed with the
# sweep still in flight.
"$tmp/cdlab" run all -remote "127.0.0.1:$wport" -retries 200 -json -o "$tmp/wal-out" \
    > "$tmp/events-wal.jsonl" 2> "$tmp/wal-run.log" &
wal_run_pid=$!
for _ in $(seq 1 300); do
    n=$(grep -c '"cached":false' "$tmp/events-wal.jsonl" 2>/dev/null || true)
    [ "${n:-0}" -ge 3 ] && break
    sleep 0.1
done
[ "${n:-0}" -ge 3 ] || { echo "restart smoke: sweep never computed 3 shards" >&2; exit 1; }
kill -9 "$wal1_pid"

# A fresh serve on the same directories replays the journal: interrupted
# jobs requeue under their ORIGINAL IDs, so the still-running client rides
# its reconnect loop across the restart and must finish with reports
# byte-identical to the uninterrupted local sweep, streaming gap-free
# events (eventcheck would flag a Seq discontinuity or a re-keyed job).
"$tmp/cdlab" serve -addr "127.0.0.1:$wport" -j 2 -cache-dir "$tmp/wal-cache" \
    2> "$tmp/wal-serve2.log" &
wal2_pid=$!
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" "$wal1_pid" "$wal2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait "$wal_run_pid"
grep -q 'wal: recovered job' "$tmp/wal-serve2.log"
diff -r "$tmp/wal-out" "$tmp/out1"
go run ./scripts/eventcheck < "$tmp/events-wal.jsonl"
# Recovery must have reused settled shards, not recomputed the sweep:
# the recovered server served at least one shard from the persistent
# cache (the client can't witness this — its `from=N` resume window skips
# the re-emitted cache-hit events — so ask the server's metrics).
go run ./scripts/promcheck -url "http://127.0.0.1:$wport/v1/metrics" -dump "$tmp/wal-metrics.txt" \
    -require cdlab_jobs_recovered_total,cdlab_wal_records_total
cachehits=$(sed -n 's/^cdlab_shards_total{source="cache"} \([0-9]*\).*/\1/p' "$tmp/wal-metrics.txt")
[ "${cachehits:-0}" -ge 1 ] || {
    echo "recovered server recomputed every shard (no cache-source shards in metrics)" >&2
    exit 1
}
recovered=$(sed -n 's/^cdlab_jobs_recovered_total \([0-9]*\).*/\1/p' "$tmp/wal-metrics.txt")
[ "${recovered:-0}" -ge 1 ] || { echo "cdlab_jobs_recovered_total=$recovered after a crash restart" >&2; exit 1; }

# SIGTERM drains the recovered server gracefully: exit 0, a clean-shutdown
# record in the WAL, and the next serve folds it (resurrecting the done
# jobs cache-hot rather than requeueing work).
kill -TERM "$wal2_pid"
wait "$wal2_pid"
grep -q 'cdlab: clean shutdown complete' "$tmp/wal-serve2.log"
"$tmp/cdlab" serve -addr "127.0.0.1:$wport" -j 2 -cache-dir "$tmp/wal-cache" \
    2> "$tmp/wal-serve3.log" &
wal3_pid=$!
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" "$wal1_pid" "$wal2_pid" "$wal3_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$wport") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done
grep -q 'clean_shutdown=true' "$tmp/wal-serve3.log"
kill "$wal3_pid" 2>/dev/null || true

echo "== cdlab smoke: single-flight coalescing (concurrent identical sweeps) =="
cport=18537
"$tmp/cdlab" serve -addr "127.0.0.1:$cport" -j 2 -cache-dir "$tmp/co-cache" \
    2> "$tmp/co-serve.log" &
co_pid=$!
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" "$wal1_pid" "$wal2_pid" "$wal3_pid" "$co_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$cport") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done

# Two identical cold sweeps race each other. Each client still gets its own
# complete event stream and report set, but the shard work happens ONCE:
# every computed shard either coalesced (second job attached to the first
# job's live flight) or cache-hit (second job arrived after the flight
# settled) — never recomputed.
"$tmp/cdlab" run all -remote "127.0.0.1:$cport" -json -o "$tmp/co-outA" \
    > "$tmp/events-coA.jsonl" 2> /dev/null &
coA_pid=$!
"$tmp/cdlab" run all -remote "127.0.0.1:$cport" -json -o "$tmp/co-outB" \
    > "$tmp/events-coB.jsonl" 2> /dev/null &
coB_pid=$!
wait "$coA_pid" "$coB_pid"
diff -r "$tmp/co-outA" "$tmp/out1"
diff -r "$tmp/co-outB" "$tmp/out1"
go run ./scripts/eventcheck < "$tmp/events-coA.jsonl"
go run ./scripts/eventcheck < "$tmp/events-coB.jsonl"

# The exactly-once proof lives in the metrics: one client's stream carries
# one shard_done per catalog shard, and the server's local-execution
# counter must equal that — two full sweeps, each shard computed once.
# The scrape also gates the new WAL/coalescing families.
shards=$(grep -c '"type":"shard_done"' "$tmp/events-coA.jsonl")
go run ./scripts/promcheck -url "http://127.0.0.1:$cport/v1/metrics" -dump "$tmp/co-metrics.txt" \
    -require cdlab_jobs_coalesced_total,cdlab_jobs_recovered_total,cdlab_wal_records_total,cdlab_wal_bytes_total,cdlab_wal_syncs_total,cdlab_wal_segments
grep -q "^cdlab_shards_total{source=\"local\"} $shards\$" "$tmp/co-metrics.txt" || {
    echo "coalesced sweeps recomputed shards (want exactly $shards local executions):" >&2
    grep '^cdlab_shards_total' "$tmp/co-metrics.txt" >&2
    exit 1
}
coalesced=$(sed -n 's/^cdlab_jobs_coalesced_total \([0-9]*\).*/\1/p' "$tmp/co-metrics.txt")
[ "${coalesced:-0}" -ge 1 ] || {
    echo "concurrent identical sweeps never coalesced (cdlab_jobs_coalesced_total=$coalesced)" >&2
    exit 1
}
kill "$co_pid" 2>/dev/null || true

echo "== cdlab smoke: bearer-token auth gates mutations, reads stay open =="
aport=18541
"$tmp/cdlab" serve -addr "127.0.0.1:$aport" -j 2 -auth-token smoke-secret \
    2> "$tmp/auth-serve.log" &
auth_pid=$!
trap 'kill "$serve_pid" "$dist_pid" "$w1_pid" "$w2_pid" "$wal1_pid" "$wal2_pid" "$wal3_pid" "$co_pid" "$auth_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$aport") 2>/dev/null; then exec 3>&-; break; fi
    sleep 0.1
done
rc=0
"$tmp/cdlab" run fig6 -remote "127.0.0.1:$aport" -o "$tmp/auth-denied" \
    2> "$tmp/auth-err.txt" || rc=$?
[ "$rc" -ne 0 ] || { echo "tokenless run against an auth-token server succeeded" >&2; exit 1; }
grep -qi 'bearer token' "$tmp/auth-err.txt"
[ -z "$(ls -A "$tmp/auth-denied" 2>/dev/null)" ] || { echo "reports written despite missing token" >&2; exit 1; }
"$tmp/cdlab" run fig6 -remote "127.0.0.1:$aport" -token smoke-secret -o "$tmp/auth-out" > /dev/null
# Metric scrapers need no secrets: the tokenless promcheck GET must pass.
go run ./scripts/promcheck -url "http://127.0.0.1:$aport/v1/metrics" -require cdlab_jobs_total
kill "$auth_pid" 2>/dev/null || true

echo "CI OK"
