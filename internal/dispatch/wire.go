package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"columndisturb/internal/cache"
	"columndisturb/internal/engine"
	"columndisturb/internal/experiments"
)

// ProtocolVersion is the wire generation of the worker protocol: the "v"
// stamped into every TaskSpec and echoed back by RegisterResponse. A
// worker and a server from different generations refuse to exchange work
// instead of misexecuting it. Bump it together with any incompatible
// change to TaskSpec or the lease verbs. Version 2 made ConfigDigest
// mandatory.
const ProtocolVersion = 2

// TaskSpec is the unit of remote work: one shard of one experiment under
// one fully resolved configuration. The server serializes it into a lease
// grant and the worker re-derives the shard from its own experiment
// registry — plans are pure functions of (Experiment, Config), so Shard/
// Label address the same closure on both machines; Label doubles as a
// guard against registry drift between builds.
type TaskSpec struct {
	// V is the protocol version, always ProtocolVersion on emission.
	V int `json:"v"`
	// Experiment is the experiment ID (experiments.ByID).
	Experiment string `json:"experiment"`
	// Config is the resolved experiment configuration the shard runs under
	// (already profile- and override-resolved server-side, so the worker
	// needs no profile registry agreement).
	Config experiments.Config `json:"config"`
	// ConfigDigest is the server's Config.Digest(), the digest its cache
	// keys the reply under. A worker whose build decodes Config to a
	// different digest (a field it lacks, a result schema it predates)
	// computes a different function, so DecodeTask refuses the task.
	ConfigDigest string `json:"config_digest"`
	// Shard indexes the experiment plan's shard list.
	Shard int `json:"shard"`
	// Label is the canonical label of that shard; a mismatch with the
	// worker's own plan fails the task instead of computing the wrong unit.
	Label string `json:"label"`
	// TraceID is the job's observability trace identifier, propagated so
	// worker-side logs correlate with the server's span records. A pure side
	// channel: it never influences execution or the reply bytes, and an
	// empty value is fine (JSON-additive, so ProtocolVersion is unchanged).
	TraceID string `json:"trace_id,omitempty"`
}

// EncodeTask serializes a task spec for a lease grant.
func EncodeTask(spec TaskSpec) []byte {
	spec.V = ProtocolVersion
	b, err := json.Marshal(spec)
	if err != nil {
		// TaskSpec is a flat struct of scalars; Marshal cannot fail.
		panic("dispatch: task encode: " + err.Error())
	}
	return b
}

// DecodeTask parses and validates one task spec. Malformed, truncated, or
// wrong-version input errors — never panics — so a skewed or hostile
// server cannot crash a worker (fuzz-covered). Unknown Config keys decode
// silently, so the spec's ConfigDigest must equal the digest of the Config
// as this build decoded it.
func DecodeTask(data []byte) (TaskSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var spec TaskSpec
	if err := dec.Decode(&spec); err != nil {
		return TaskSpec{}, fmt.Errorf("dispatch: bad task spec: %w", err)
	}
	if dec.More() {
		return TaskSpec{}, fmt.Errorf("dispatch: trailing data after task spec")
	}
	if spec.V != ProtocolVersion {
		return TaskSpec{}, fmt.Errorf("dispatch: task protocol version %d, want %d", spec.V, ProtocolVersion)
	}
	if spec.Experiment == "" {
		return TaskSpec{}, fmt.Errorf("dispatch: task spec names no experiment")
	}
	if spec.Shard < 0 {
		return TaskSpec{}, fmt.Errorf("dispatch: negative shard index %d", spec.Shard)
	}
	if spec.ConfigDigest == "" {
		return TaskSpec{}, fmt.Errorf("dispatch: task spec carries no config digest")
	}
	if got := spec.Config.Digest(); got != spec.ConfigDigest {
		return TaskSpec{}, fmt.Errorf("dispatch: config decodes to digest %s here, server says %s (worker/server build skew)", got, spec.ConfigDigest)
	}
	return spec, nil
}

// ExecuteTask runs one leased task on a worker: it re-derives the shard
// from the local experiment registry, executes it with the engine's panic
// isolation, and returns the result encoded with the shard cache's gob
// codec — the exact bytes the server can Put into its cache and Decode for
// the merge. The returned error is a task failure to report via complete
// (the worker process itself stays healthy).
func ExecuteTask(ctx context.Context, raw []byte) ([]byte, error) {
	spec, err := DecodeTask(raw)
	if err != nil {
		return nil, err
	}
	e, ok := experiments.ByID(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("dispatch: unknown experiment %q (worker/server registry skew?)", spec.Experiment)
	}
	shards, _, err := experiments.BuildShards(e, spec.Config)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", spec.Experiment, err)
	}
	if spec.Shard >= len(shards) {
		return nil, fmt.Errorf("dispatch: %s: shard %d out of range (plan has %d)", spec.Experiment, spec.Shard, len(shards))
	}
	if got := shards[spec.Shard].Label; got != spec.Label {
		return nil, fmt.Errorf("dispatch: %s: shard %d is %q here, server says %q (registry skew)", spec.Experiment, spec.Shard, got, spec.Label)
	}
	v, err := engine.RunShard(ctx, shards[spec.Shard])
	if err != nil {
		return nil, err
	}
	reply, err := (cache.Gob{}).Encode(v)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: encode shard result: %w", spec.Experiment, err)
	}
	return reply, nil
}

// The remaining wire types are the JSON bodies of the /v1/workers HTTP
// verbs (see internal/service's handler and the client package's worker
// loop — both marshal these same structs, so the codec cannot drift).

// RegisterRequest is the body of POST /v1/workers.
type RegisterRequest struct {
	// Name is an optional human label for listings (defaults to the id).
	Name string `json:"name,omitempty"`
	// Capacity is how many shards the worker executes concurrently
	// (<= 0 selects 1); the server leases it at most this many tasks.
	Capacity int `json:"capacity,omitempty"`
	// GOARCH and GoVersion name the worker's build (runtime.GOARCH and
	// runtime.Version()). The server admits only its own: Config.Digest
	// pins what a shard computes, these pin how its floating point rounds.
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

// NewRegisterRequest returns the registration of a worker running this
// build.
func NewRegisterRequest(name string, capacity int) RegisterRequest {
	return RegisterRequest{Name: name, Capacity: capacity, GOARCH: runtime.GOARCH, GoVersion: runtime.Version()}
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	// Protocol echoes ProtocolVersion so mismatched workers bail out.
	Protocol int `json:"protocol"`
	// WorkerID addresses the worker in every subsequent verb.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMs is the heartbeat deadline: a worker silent for longer is
	// dropped and its leased tasks are requeued.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// LeaseGrant is the 200 body of POST /v1/workers/<id>/lease: one task to
// execute. An empty poll returns 204 with no body.
type LeaseGrant struct {
	// TaskID names the lease in the complete verb.
	TaskID string `json:"task_id"`
	// Spec is the serialized TaskSpec (EncodeTask/DecodeTask).
	Spec json.RawMessage `json:"spec"`
}

// CompleteRequest is the body of POST /v1/workers/<id>/tasks/<task>: the
// shard's gob-encoded result, or the error that failed it. Exactly one of
// Result/Error is meaningful.
type CompleteRequest struct {
	// Result is the ExecuteTask reply (JSON base64-encodes it).
	Result []byte `json:"result,omitempty"`
	// Error reports a shard failure (the job fails; lost-worker requeue is
	// the server's business, not an error report).
	Error string `json:"error,omitempty"`
	// TraceID echoes the leased TaskSpec's trace identifier so server-side
	// logs can correlate a completion with its job trace. Informational
	// only; the server never keys anything on it.
	TraceID string `json:"trace_id,omitempty"`
}

// WorkerInfo is one entry of the GET /v1/workers listing.
type WorkerInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	// Inflight is how many leases the worker currently holds.
	Inflight int `json:"inflight"`
	// LastSeenMs is how long ago the worker last proved liveness.
	LastSeenMs int64 `json:"last_seen_ms"`
	// Completed counts tasks the worker has finished successfully.
	Completed int64 `json:"completed"`
	// BusyMs is the summed lease→complete wall time of those tasks.
	BusyMs int64 `json:"busy_ms"`
	// AvgTaskMs is BusyMs averaged over Completed (0 until the first
	// completion).
	AvgTaskMs float64 `json:"avg_task_ms,omitempty"`
}
