package service

import (
	"encoding/json"
	"testing"
	"time"
)

// The /v1 wire decoders sit on the trust boundary between processes: the
// event envelope is parsed by every stream consumer (the remote client,
// the CLI's end-to-end tests) and the job spec by the server for every
// POST /v1/jobs body. Both must reject malformed, truncated, or wrong-version input with an
// error — never a panic — no matter what bytes arrive. Seed corpora for
// both fuzz targets are committed under testdata/fuzz (run with
// `go test -fuzz FuzzDecodeEvent ./internal/service`).

func fuzzSeedEvents() [][]byte {
	cached := true
	events := []Event{
		{V: EventSchemaVersion, Type: EventJobQueued, Job: "job-1", Experiment: "fig6", Seq: 0, Time: time.Unix(1, 0)},
		{V: EventSchemaVersion, Type: EventShardDone, Job: "job-1", Experiment: "fig6", Seq: 2, Time: time.Unix(1, 0),
			Shard: "arm 1/3", Done: 1, Total: 3, Cached: &cached, Worker: "w2"},
		{V: EventSchemaVersion, Type: EventJobFinished, Job: "job-1", Experiment: "fig6", Seq: 5, Time: time.Unix(1, 0), ElapsedMs: 12.5},
		{V: EventSchemaVersion, Type: EventJobFailed, Job: "job-1", Experiment: "fig6", Seq: 5, Time: time.Unix(1, 0), Error: "boom"},
	}
	var out [][]byte
	for _, ev := range events {
		out = append(out, ev.EncodeJSONL())
	}
	return out
}

func FuzzDecodeEvent(f *testing.F) {
	for _, seed := range fuzzSeedEvents() {
		f.Add(seed)
		// Truncations exercise every partial-JSON prefix class.
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(`{"v":2,"type":"job_queued","job":"j","experiment":"e","seq":0,"time":"2026-01-02T03:04:05Z"}`))
	f.Add([]byte(`{"v":1,"type":"shard_done","job":"j","experiment":"e","seq":1,"time":"2026-01-02T03:04:05Z","done":3,"total":1}`))
	f.Add([]byte(`{"v":1,"type":"nonsense","job":"j","experiment":"e","seq":0,"time":"2026-01-02T03:04:05Z"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data) // must never panic
		if err != nil {
			return
		}
		// An accepted event is schema-valid by construction...
		if verr := ValidateEvent(ev); verr != nil {
			t.Fatalf("DecodeEvent accepted a schema-invalid event: %v (%s)", verr, data)
		}
		// ...and survives a re-encode/re-decode round trip.
		back, err := DecodeEvent(ev.EncodeJSONL())
		if err != nil {
			t.Fatalf("accepted event does not round-trip: %v (%s)", err, data)
		}
		if back.Type != ev.Type || back.Seq != ev.Seq || back.Job != ev.Job || back.V != ev.V {
			t.Fatalf("round trip mutated the envelope: %+v vs %+v", back, ev)
		}
	})
}

func FuzzDecodeJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig6"}`,
		`{"experiment":"fig6","profile":"full","overrides":{"seed":"7"},"no_cache":true}`,
		`{"experiment":"table1","full":true}`,          // removed flag: rejected
		`{"experiment":"fig6"}{"experiment":"table1"}`, // trailing object
		`{"experiment":`,
		`[1,2,3]`,
		`"fig6"`,
		``,
		`{"experiment":"fig6","overrides":{"seed":7}}`, // wrong value type
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeJobSpec(data) // must never panic
		if err != nil {
			return
		}
		// An accepted spec must re-marshal and re-decode to itself: the
		// client marshals this same struct, so asymmetry here is wire
		// drift.
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v (%s)", err, data)
		}
		back, err := DecodeJobSpec(out)
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v (%s)", err, out)
		}
		if back.Experiment != spec.Experiment || back.Profile != spec.Profile ||
			back.NoCache != spec.NoCache ||
			len(back.Overrides) != len(spec.Overrides) {
			t.Fatalf("round trip mutated the spec: %+v vs %+v", back, spec)
		}
	})
}
