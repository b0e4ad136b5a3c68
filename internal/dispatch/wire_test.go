package dispatch

import (
	"strings"
	"testing"

	"columndisturb/internal/experiments"
)

// TestDecodeTaskRejects pins which check refuses each malformed spec, so
// every fuzz seed keeps reaching the check it was written for.
func TestDecodeTaskRejects(t *testing.T) {
	small := experiments.Small()
	digest := small.Digest()
	for _, tc := range []struct {
		name, spec, want string
	}{
		{"old protocol", `{"v":1,"experiment":"fig6","shard":0,"label":"x"}`, "protocol version 1, want 2"},
		{"no experiment", `{"v":2,"shard":0,"label":"x"}`, "names no experiment"},
		{"negative shard", `{"v":2,"experiment":"fig6","shard":-1,"label":"x"}`, "negative shard"},
		{"trailing", `{"v":2,"experiment":"fig6","shard":0,"label":"x"} extra`, "trailing data"},
		{"no digest", `{"v":2,"experiment":"fig6","shard":0,"label":"x"}`, "no config digest"},
		{"forged digest", `{"v":2,"experiment":"fig6","shard":0,"label":"x","config_digest":"abc"}`, "server says abc"},
	} {
		if _, err := DecodeTask([]byte(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	ok := TaskSpec{Experiment: "fig6", Config: small, ConfigDigest: digest, Shard: 2, Label: "x"}
	if _, err := DecodeTask(EncodeTask(ok)); err != nil {
		t.Fatalf("a spec carrying its config's digest must decode: %v", err)
	}
}

// TestDecodeTaskAcceptsEncodedProfiles requires what FuzzDecodeTask cannot:
// that a spec the server encodes is accepted. The specs are built here from
// the current profiles, so a Config change cannot leave a stale encoding
// behind.
func TestDecodeTaskAcceptsEncodedProfiles(t *testing.T) {
	for name, cfg := range map[string]experiments.Config{"small": experiments.Small(), "full": experiments.Full()} {
		spec := TaskSpec{V: ProtocolVersion, Experiment: "fig6", Config: cfg, ConfigDigest: cfg.Digest(), Shard: 2, Label: "arm 3/3"}
		got, err := DecodeTask(EncodeTask(spec))
		if err != nil {
			t.Fatalf("%s: encoded spec rejected: %v", name, err)
		}
		if got != spec {
			t.Fatalf("%s: round trip mutated the spec: %+v vs %+v", name, got, spec)
		}
	}
}
