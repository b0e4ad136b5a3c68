package dispatch

import (
	"testing"

	"columndisturb/internal/experiments"
)

// FuzzDecodeTask hardens the worker side of the trust boundary: a lease
// grant's spec bytes come off the network, and a malformed, truncated or
// wrong-version spec must error — never panic — because one bad grant must
// not kill an executor that may hold other leases. Seed corpus committed
// under testdata/fuzz. The body checks only what an accepted spec must
// satisfy; TestDecodeTaskAcceptsEncodedProfiles requires that well-formed
// specs are accepted.
func FuzzDecodeTask(f *testing.F) {
	small := experiments.Small()
	f.Add(EncodeTask(TaskSpec{Experiment: "fig6", Config: small, ConfigDigest: small.Digest(), Shard: 2, Label: "arm 3/3"}))
	f.Add([]byte(`{"v":0,"experiment":"fig6","shard":0,"label":"x"}`))
	f.Add([]byte(`{"v":99,"experiment":"fig6","shard":0,"label":"x"}`))
	f.Add([]byte(`{"v":2,"experiment":"","shard":0}`))
	f.Add([]byte(`{"v":2,"experiment":"fig6","shard":-3,"label":"x"}`))
	f.Add([]byte(`{"v":2,"experiment":"fig6","shard":0}{"v":2}`))
	f.Add([]byte(`{"v":2,"experiment":"fig6","config":{"Seed":"not-a-number"}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeTask(data) // must never panic
		if err != nil {
			return
		}
		if spec.V != ProtocolVersion {
			t.Fatalf("DecodeTask accepted protocol version %d (%s)", spec.V, data)
		}
		if spec.Experiment == "" || spec.Shard < 0 {
			t.Fatalf("DecodeTask accepted an invalid spec %+v (%s)", spec, data)
		}
		if spec.ConfigDigest != spec.Config.Digest() {
			t.Fatalf("DecodeTask accepted config digest %q for a config digesting to %q (%s)",
				spec.ConfigDigest, spec.Config.Digest(), data)
		}
		// An accepted spec survives the encode/decode round trip the
		// server→worker hop performs.
		back, err := DecodeTask(EncodeTask(spec))
		if err != nil {
			t.Fatalf("accepted spec does not round-trip: %v (%s)", err, data)
		}
		if back != spec {
			t.Fatalf("round trip mutated the spec: %+v vs %+v", back, spec)
		}
	})
}
