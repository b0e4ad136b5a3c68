package service

import (
	"encoding/json"
	"fmt"
	"time"
)

// EventType enumerates the records of a job's event stream.
type EventType string

const (
	// EventJobQueued is emitted once when Submit accepts the job.
	EventJobQueued EventType = "job_queued"
	// EventJobStarted is emitted when the scheduler starts the job's
	// flight.
	EventJobStarted EventType = "job_started"
	// EventShardDone is emitted after each shard completes, with Done/Total
	// progress and whether the shard was served from the result cache.
	EventShardDone EventType = "shard_done"
	// EventJobFinished is emitted once when the job's report is ready.
	EventJobFinished EventType = "job_finished"
	// EventJobFailed is emitted once when the job errors or is cancelled.
	EventJobFailed EventType = "job_failed"
)

// EventSchemaVersion is the version stamped into every event's envelope
// (the "v" field). It names the wire generation of the stream itself —
// consumers reject streams from a different generation instead of
// misreading them — and matches the HTTP API version the `/v1` routes and
// the client package speak. Bump it together with any incompatible change
// to Event's JSON shape.
const EventSchemaVersion = 1

// Event is one record of a job's machine-readable progress stream. Encoded
// as JSON lines it is the service's wire format: `cdlab run -json` prints
// it to stdout and `cdlab serve` streams it per job over HTTP (the /v1
// event endpoint). Every event carries the v/type/job/experiment/seq/time
// envelope; the remaining fields are type-specific and omitted elsewhere.
type Event struct {
	// V is the envelope version, always EventSchemaVersion on emission.
	V          int       `json:"v"`
	Type       EventType `json:"type"`
	Job        string    `json:"job"`
	Experiment string    `json:"experiment"`
	// Seq numbers the job's events from 0 with no gaps, so a consumer can
	// detect a torn stream.
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`

	// Shard identifies the finished shard; Done counts completed shards of
	// Total; Cached reports whether the result came from the shard cache.
	// Set on shard_done only.
	Shard  string `json:"shard,omitempty"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Cached *bool  `json:"cached,omitempty"`
	// Worker names the remote worker that executed the shard (the
	// dispatch backend); empty for shards computed in-process. Set on
	// shard_done only.
	Worker string `json:"worker,omitempty"`

	// ElapsedMs is a wall-time measurement. On job_finished and job_failed
	// it is the job's total wall time, measured once by the service from
	// job start to report completion. On shard_done it is the shard's own
	// compute time — in-process run time, or lease→complete latency for a
	// remotely executed shard — and 0 for cache hits, which compute
	// nothing.
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	// Error is the failure cause. Set on job_failed only.
	Error string `json:"error,omitempty"`
}

// EncodeJSONL renders the event as one JSON line (newline included).
func (e Event) EncodeJSONL() []byte {
	b, err := json.Marshal(e)
	if err != nil {
		// Event is a flat struct of scalars; Marshal cannot fail.
		panic("service: event encode: " + err.Error())
	}
	return append(b, '\n')
}

// DecodeEvent parses one JSONL event line and validates it against the
// stream schema. It is the single decode path of every stream consumer —
// the remote client's follower and CI's eventcheck gate — and it must
// error (never panic) on malformed, truncated or wrong-version input, a
// property the fuzz suite enforces.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("not a JSON event: %w", err)
	}
	if err := ValidateEvent(ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// ValidateEvent checks one decoded event against the stream schema; the
// CLI's -json self-check and CI's event-schema gate share it.
func ValidateEvent(e Event) error {
	if e.V != EventSchemaVersion {
		return fmt.Errorf("event envelope version %d, want %d: %+v", e.V, EventSchemaVersion, e)
	}
	if e.Job == "" || e.Experiment == "" {
		return fmt.Errorf("event missing job/experiment envelope: %+v", e)
	}
	if e.Time.IsZero() {
		return fmt.Errorf("event missing timestamp: %+v", e)
	}
	if e.ElapsedMs < 0 {
		return fmt.Errorf("event with negative elapsed_ms: %+v", e)
	}
	switch e.Type {
	case EventJobQueued, EventJobStarted:
		if e.ElapsedMs != 0 || e.Worker != "" {
			return fmt.Errorf("%s event carrying shard fields: %+v", e.Type, e)
		}
		return nil
	case EventShardDone:
		if e.Shard == "" || e.Done < 1 || e.Total < e.Done || e.Cached == nil {
			return fmt.Errorf("malformed shard_done event: %+v", e)
		}
		// PR 6's enrichment contract: a cache hit computes nothing, so it
		// carries no wall time and no worker attribution; a computed shard
		// always measures a positive wall time.
		if *e.Cached && (e.ElapsedMs != 0 || e.Worker != "") {
			return fmt.Errorf("cached shard_done carrying compute fields: %+v", e)
		}
		if !*e.Cached && e.ElapsedMs <= 0 {
			return fmt.Errorf("computed shard_done without elapsed_ms: %+v", e)
		}
		return nil
	case EventJobFinished:
		if e.ElapsedMs <= 0 {
			return fmt.Errorf("job_finished without elapsed_ms: %+v", e)
		}
		return nil
	case EventJobFailed:
		if e.Error == "" {
			return fmt.Errorf("job_failed event without error: %+v", e)
		}
		if e.ElapsedMs <= 0 {
			return fmt.Errorf("job_failed without elapsed_ms: %+v", e)
		}
		return nil
	default:
		return fmt.Errorf("unknown event type %q", e.Type)
	}
}
