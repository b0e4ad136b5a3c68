// Package columndisturb is a simulation-based reproduction of
// "ColumnDisturb: Understanding Column-based Read Disturbance in Real DRAM
// Chips and Implications for Future Systems" (MICRO 2025).
//
// ColumnDisturb is a read-disturbance phenomenon in which repeatedly
// opening (hammering) or keeping open (pressing) a DRAM row disturbs cells
// through the *bitlines* the row drives: every row sharing those bitlines —
// up to three consecutive subarrays, thousands of rows — can experience
// bitflips, in stark contrast to RowHammer and RowPress, which affect only
// the aggressor's immediate neighbours.
//
// The original work characterizes 216 real DDR4 and 4 HBM2 chips on an
// FPGA-based testing infrastructure. This library substitutes calibrated
// device-level simulation for the hardware (see DESIGN.md): a cell-explicit
// DRAM model driven by DDR commands, a statistical population model for
// the paper's large sweeps, the characterization methodology (RowClone
// boundary reverse engineering, guard-banded bitflip counting, bisection
// search), the ECC analyses, and a cycle-accurate memory-system simulator
// (a per-bank DRAM command state machine enforcing the datasheet timing
// constraints, DESIGN.md §15) for the retention-aware refresh evaluation.
//
// The package exposes three levels of API:
//
//   - Chip: open a catalog module as a simulated device and drive it with
//     the paper's access patterns (hammer, press, idle), read back bitflips
//     and run methodology steps such as subarray boundary reverse
//     engineering and the time-to-first-bitflip search.
//   - Experiments: regenerate any table or figure of the paper through the
//     typed Request/Profile/Runner API (DESIGN.md §9). A Request names
//     experiment IDs, a configuration Profile ("small", "full", or a
//     registered scenario profile) and per-run Overrides; a Runner
//     executes it. NewLocalRunner runs in-process — every experiment's
//     shards interleave on ONE shared shard dispatcher with optional
//     two-level result caching — and the client package (columndisturb/client) is
//     the same Runner interface speaking the /v1 HTTP API against a
//     `cdlab serve` process, with byte-identical reports. A serve process
//     is also a distributed scheduler (DESIGN.md §10): `cdlab worker
//     -connect` processes on any machine register over the /v1 worker API
//     and lease shards from it, with heartbeat-deadline requeue making
//     worker death invisible to results. Subscribe observes the per-job
//     event stream (queued/started/shard_done with cache hit/miss and the
//     executing worker, finished/failed).
//   - Analyses: the §6 mitigation arithmetic (AnalyzeMitigations); the
//     RAIDR sweep is the fig23 experiment.
//
// Experiments execute on the parallel experiment engine (internal/engine)
// under ONE contract (DESIGN.md §11): every experiment is a Plan — a list
// of independent shards with per-shard keyed RNG streams plus a
// canonical-order merge. The service looks every shard up in the result
// cache — keyed by (experiment, config digest, canonical shard label) —
// before scheduling anything; only the misses go to the dispatcher, which
// runs them on its bounded local executors or fans them out to remote
// worker processes. Output is bit-identical for every worker count, every
// placement (local, distributed, mid-run worker loss), and warm or cold
// caches — there is no serial special case. The dispatcher leases shards
// first in, first out; requeued and crash-recovered work goes first
// (DESIGN.md §12). Plan builders weigh their work in estimated
// single-core nanoseconds: a shard whose estimate exceeds a configurable
// share of the plan total (Config.MaxShardShare, default 10%) is
// subdivided along its atom list — runs, blast cells, sample chunks —
// into range-labelled sub-shards with per-atom RNG streams, so the
// dominant shard can no longer serialize a sweep's tail (DESIGN.md §16).
//
// A serve process is durable (DESIGN.md §14): with LocalOptions.WALDir
// (or `cdlab serve -cache-dir`, which defaults the WAL next to the cache)
// every accepted job is journaled to a checksummed write-ahead log
// (internal/wal) before the submit ACK, and a restarted server replays
// the journal — interrupted jobs requeue under their original IDs, done
// jobs re-render cache-hot, and reconnecting clients resume event
// streams and reports byte-identically across the crash. SIGTERM drains
// gracefully and records a clean shutdown. Each submission is one job
// and one computation: identical jobs share work only through the shard
// cache. `-auth-token` gates mutating /v1 verbs behind a bearer token
// while reads and metrics stay open.
//
// Everything is deterministic for a fixed seed and runs on a laptop. Each
// report prints its measured values next to the paper's in `(paper: …)`
// notes, and DESIGN.md §5 lists the gaps of the calibrated constants.
package columndisturb
