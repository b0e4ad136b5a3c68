// Journal: the service's WAL schema and recovery fold (DESIGN.md §14).
//
// The journal records job lifecycle transitions, not results. A submitted
// record carries the full JobSpec (including the trace ID) — everything
// needed to re-run the job, because re-running IS the recovery mechanism:
// shard results live in the content-addressed cache, so a recovered job's
// shards come back as cache hits and the re-merge renders the
// byte-identical report the determinism invariant guarantees. So the
// journal writes only what the fold reads: settle and retire records
// carry IDs and final states, and no record names a shard.
//
// Durability tiers match the semantics: a submitted record is fsynced
// before Submit acknowledges (the client learned the ID, so the job must
// survive), while settle/retire records are buffered and ride the next
// AppendSync or the close — losing the most recent ones to a crash only
// means recovery re-runs a little more cache-hot work.
package service

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"columndisturb/internal/obs"
	"columndisturb/internal/wal"
)

// WAL record types. The WAL layer versions the container (its segment
// magic); these tag the payloads inside it.
const (
	recSubmitted byte = 1 // full JobSpec: the job exists and must survive
	recShard     byte = 2 // legacy: a computed shard's cache key; no longer written, folded as a no-op
	recSettled   byte = 3 // terminal state of a job
	recRetired   byte = 4 // retention dropped the job; never resurrect it
	recSeq       byte = 5 // job-ID counter floor, written at clean shutdown
	recClean     byte = 6 // clean shutdown marker; must be the final record
)

type submittedRec struct {
	ID   string    `json:"id"`
	Spec JobSpec   `json:"spec"`
	At   time.Time `json:"at"`
}

type settledRec struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

type idRec struct {
	ID string `json:"id"`
}

// seqRec holds the last job number issued. The JSON name predates that
// meaning: a clean close of an older version recorded one more, which
// only skips a number.
type seqRec struct {
	Last int `json:"next"`
}

// RecoveredJob is one job the journal fold found live: either interrupted
// (State "") or settled done with its report potentially still unfetched.
type RecoveredJob struct {
	ID string
	// Spec is the original submission, trace ID included.
	Spec JobSpec
	// At is the original submission time. Recovery anchors the re-run's
	// start time here so the terminal event's wall time spans the crash —
	// a resumed client's merged stream stays consistent (no shard can
	// appear to outlast its job).
	At time.Time
	// State is "" for a job interrupted before it settled, or the terminal state
	// the journal recorded. Done jobs are resurrected (their reports may
	// not have been fetched); failed/canceled ones are not.
	State JobState
}

// Recovered is the journal fold: what a restarted service must
// reconstruct.
type Recovered struct {
	// Jobs in original submission order.
	Jobs []RecoveredJob
	// LastSeq is the last job number the journal's seq records name,
	// written at clean close and at recovery (recovery additionally
	// floors on the numeric suffix of recovered IDs, so a crash before
	// the first seq record still never reuses an ID).
	LastSeq int
	// Clean reports the log ended with a clean-shutdown marker: every
	// interrupted job was suspended deliberately, none crashed mid-write.
	Clean bool
	// Skipped counts undecodable or unknown-type records tolerated during
	// the fold (forward compatibility; corrupt frames never get this far —
	// the WAL's CRC layer drops or rejects them).
	Skipped int
}

// Journal wraps the WAL with the service's record schema. A nil *Journal
// is a valid no-op journal, so the service code carries no nil checks.
// The WAL serializes appends and latches its first write failure, after
// which the journal is dead; failed reports that failure once.
type Journal struct {
	log    *wal.Log
	lg     *slog.Logger
	failed sync.Once
}

// OpenJournal opens (or creates) the job journal in dir, replays it, and
// returns the fold alongside the journal ready for new records.
func OpenJournal(dir string, logger *slog.Logger) (*Journal, *Recovered, error) {
	if logger == nil {
		logger = obs.NopLogger()
	}
	log, records, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return nil, nil, fmt.Errorf("service: open journal: %w", err)
	}
	rec := foldRecords(records)
	if st := log.Stats(); st.Truncated {
		logger.Warn("wal: torn tail truncated at replay (crash mid-append)", "dir", dir)
	}
	return &Journal{log: log, lg: logger}, rec, nil
}

// foldRecords reduces the replayed record stream to live job state.
// Last-write-wins per job ID: a resubmitted record (recovery re-journals
// survivors before compacting) resets the job to interrupted, a settle
// records its terminal state, a retire drops it for good. Shard records
// written by older versions are skipped silently.
func foldRecords(records []wal.Record) *Recovered {
	rec := &Recovered{}
	jobs := map[string]*RecoveredJob{}
	var order []string
	for _, r := range records {
		switch r.Type {
		case recSubmitted:
			// The outer Spec shadows submittedRec's so that a spec
			// journaled before JobSpec.Full was removed keeps its flag.
			var sr struct {
				submittedRec
				Spec struct {
					JobSpec
					Full bool `json:"full"`
				} `json:"spec"`
			}
			if json.Unmarshal(r.Data, &sr) != nil || sr.ID == "" {
				rec.Skipped++
				continue
			}
			if sr.Spec.Full {
				sr.Spec.Profile = "full"
			}
			if j, ok := jobs[sr.ID]; ok {
				// Resubmitted by a previous recovery: keep the ORIGINAL
				// submission time (the elapsed anchor must span every crash),
				// reset to interrupted.
				if !j.At.IsZero() && j.At.Before(sr.At) {
					sr.At = j.At
				}
				j.Spec, j.At, j.State = sr.Spec.JobSpec, sr.At, ""
				continue
			}
			jobs[sr.ID] = &RecoveredJob{ID: sr.ID, Spec: sr.Spec.JobSpec, At: sr.At}
			order = append(order, sr.ID)
		case recShard:
			// Legacy: recovery never needed it, so it is not counted as skipped.
		case recSettled:
			var st settledRec
			if json.Unmarshal(r.Data, &st) != nil {
				rec.Skipped++
				continue
			}
			if j, ok := jobs[st.ID]; ok {
				j.State = st.State
			}
		case recRetired:
			var ir idRec
			if json.Unmarshal(r.Data, &ir) != nil {
				rec.Skipped++
				continue
			}
			delete(jobs, ir.ID)
		case recSeq:
			var sq seqRec
			if json.Unmarshal(r.Data, &sq) != nil {
				rec.Skipped++
				continue
			}
			if sq.Last > rec.LastSeq {
				rec.LastSeq = sq.Last
			}
		case recClean:
			// Only counts if it is the FINAL record; checked below.
		default:
			rec.Skipped++
		}
	}
	for _, id := range order {
		if j, ok := jobs[id]; ok {
			rec.Jobs = append(rec.Jobs, *j)
		}
	}
	rec.Clean = len(records) > 0 && records[len(records)-1].Type == recClean
	return rec
}

// append marshals and appends one record; sync additionally waits for
// durability. It is nil-safe.
func (jn *Journal) append(typ byte, v any, sync bool) error {
	if jn == nil {
		return nil
	}
	var data []byte
	if v != nil {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return fmt.Errorf("service: journal encode: %w", err)
		}
	}
	r := wal.Record{Type: typ, Data: data}
	var err error
	if sync {
		err = jn.log.AppendSync(r)
	} else {
		err = jn.log.Append(r)
	}
	if err != nil {
		jn.failed.Do(func() {
			jn.lg.Error("wal: journal write failed; durability lost for this process", "error", err)
		})
	}
	return err
}

// submitted journals a new job durably — the one record whose loss would
// orphan a client-visible ID, so it is fsynced before Submit returns.
func (jn *Journal) submitted(id string, spec JobSpec, at time.Time) error {
	return jn.append(recSubmitted, submittedRec{ID: id, Spec: spec, At: at}, true)
}

// settled journals a job's terminal state (buffered).
func (jn *Journal) settled(id string, state JobState, errText string) {
	_ = jn.append(recSettled, settledRec{ID: id, State: state, Error: errText}, false)
}

// retired journals a retention drop: the job must never resurrect.
func (jn *Journal) retired(id string) {
	_ = jn.append(recRetired, idRec{ID: id}, false)
}

// lastSeq journals the last job number issued (buffered), so that
// compaction or a restart never hands out a used ID again.
func (jn *Journal) lastSeq(n int) {
	_ = jn.append(recSeq, seqRec{Last: n}, false)
}

// compact drops the journal generations inherited at open. The service
// calls it after re-journaling every recovered job, so the WAL holds one
// compact generation instead of unbounded history.
func (jn *Journal) compact() {
	if jn == nil {
		return
	}
	if err := jn.log.DropHistory(); err != nil {
		jn.lg.Warn("wal: compaction failed; stale segments remain", "error", err)
	}
}

// close finishes the journal. When clean is true it writes the last job
// number issued and the clean-shutdown marker first, so the next replay
// knows no job crashed mid-write and never reuses an ID.
func (jn *Journal) close(lastSeq int, clean bool) {
	if jn == nil {
		return
	}
	if clean {
		jn.lastSeq(lastSeq)
		_ = jn.append(recClean, nil, false)
	}
	if err := jn.log.Close(); err != nil {
		jn.lg.Error("wal: close failed", "error", err)
	}
}

// abandon drops the journal without flushing — test hook simulating
// SIGKILL (see wal.Log.Abandon).
func (jn *Journal) abandon() {
	if jn != nil {
		jn.log.Abandon()
	}
}

// WALStats exposes the underlying log's counters for metrics export
// (zero Stats on a nil journal).
func (jn *Journal) WALStats() wal.Stats {
	if jn == nil {
		return wal.Stats{}
	}
	return jn.log.Stats()
}
