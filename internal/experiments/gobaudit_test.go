package experiments

import (
	"context"
	"reflect"
	"testing"

	"columndisturb/internal/cache"
)

// auditConfig is a deliberately tiny configuration: the gob audit runs
// every shard of every plan once, so it trades statistical breadth for
// speed (the values don't matter — only that every part round-trips the
// cache codec and merges identically afterwards).
func auditConfig() Config {
	return Config{
		SubarraysPerModule: 1,
		TTFSamples:         2,
		Mixes:              1,
		MeasureInstr:       2_000,
		CellRows:           16,
		CellCols:           64,
		Seed:               3,
	}
}

// checkExportedFields fails if a shard part's struct type (or a nested
// struct) carries unexported fields: gob silently drops them, so a warm
// cache or a remote worker reply would decode a part missing data — the
// classic silent-corruption bug this audit exists to catch at registration
// time rather than in production cache traffic.
func checkExportedFields(t *testing.T, id string, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		checkExportedFields(t, id, typ.Elem(), seen)
		return
	case reflect.Struct:
	default:
		return
	}
	if seen[typ] {
		return
	}
	seen[typ] = true
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Errorf("%s: shard part type %s has unexported field %q — gob drops it silently", id, typ, f.Name)
			continue
		}
		checkExportedFields(t, id, f.Type, seen)
	}
}

// TestShardPartsGobEncodable is the registry-wide cache audit: every
// experiment's every shard part must encode with the shard cache's gob
// codec (i.e. its concrete type was registered at init), decode back, and
// merge into a byte-identical report. This is exactly the warm-cache and
// remote-worker path — a plan whose parts fail here would compute fine
// cold but corrupt or fail on every cache hit and every dispatched shard.
// Every entry is decoded twice: the codec pools the decoder of the first
// decode, so the second goes through a warm decoder, as a replay of many
// entries does, and must return the same value and merge.
func TestShardPartsGobEncodable(t *testing.T) {
	cfg := auditConfig()
	codec := cache.Gob{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			plan, err := e.Plan(cfg)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			parts := make([]any, len(plan.Shards))
			decoded := make([]any, len(plan.Shards))
			warmDecoded := make([]any, len(plan.Shards))
			seen := map[reflect.Type]bool{}
			for i, sh := range plan.Shards {
				v, err := sh.Run(context.Background())
				if err != nil {
					t.Fatalf("shard %q: %v", sh.Label, err)
				}
				parts[i] = v
				checkExportedFields(t, e.ID, reflect.TypeOf(v), seen)
				data, err := codec.Encode(v)
				if err != nil {
					t.Fatalf("shard %q: part type %T not encodable (missing registerShardType?): %v",
						sh.Label, v, err)
				}
				back, err := codec.Decode(data)
				if err != nil {
					t.Fatalf("shard %q: decode: %v", sh.Label, err)
				}
				if got, want := reflect.TypeOf(back), reflect.TypeOf(v); got != want {
					t.Fatalf("shard %q: decoded type %v, want %v", sh.Label, got, want)
				}
				decoded[i] = back
				again, err := codec.Decode(data)
				if err != nil {
					t.Fatalf("shard %q: second decode: %v", sh.Label, err)
				}
				if !reflect.DeepEqual(again, back) {
					t.Fatalf("shard %q: second decode %#v differs from the first %#v", sh.Label, again, back)
				}
				warmDecoded[i] = again
			}
			fresh, err := plan.Merge(parts)
			if err != nil {
				t.Fatalf("merge of fresh parts: %v", err)
			}
			warm, err := plan.Merge(decoded)
			if err != nil {
				t.Fatalf("merge of decoded parts (the warm-cache path): %v", err)
			}
			if f, w := fresh.String(), warm.String(); f != w {
				t.Fatalf("decoded parts merge differently — a warm cache would change the report:\n--- fresh ---\n%s\n--- decoded ---\n%s", f, w)
			}
			again, err := plan.Merge(warmDecoded)
			if err != nil {
				t.Fatalf("merge of parts decoded a second time: %v", err)
			}
			if f, a := fresh.String(), again.String(); f != a {
				t.Fatalf("parts decoded a second time merge differently:\n--- fresh ---\n%s\n--- decoded again ---\n%s", f, a)
			}
		})
	}
}
