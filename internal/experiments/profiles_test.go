package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestBuiltinProfiles(t *testing.T) {
	small, ok := ProfileByName("small")
	if !ok || small.Config != Small() {
		t.Fatalf("small profile = %+v, %v", small, ok)
	}
	full, ok := ProfileByName("full")
	if !ok || full.Config != Full() {
		t.Fatalf("full profile = %+v, %v", full, ok)
	}
	names := []string{}
	for _, p := range Profiles() {
		names = append(names, p.Name)
		if p.Description == "" {
			t.Fatalf("profile %s has no description", p.Name)
		}
	}
	// Sorted by name, and both built-ins present.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("profiles not sorted: %v", names)
		}
	}
}

// profileSeq numbers the profiles TestRegisterProfileValidation registers.
var profileSeq int

func TestRegisterProfileValidation(t *testing.T) {
	if err := RegisterProfile(Profile{Name: ""}); err == nil {
		t.Fatal("empty profile name accepted")
	}
	if err := RegisterProfile(Profile{Name: "small", Config: Full()}); err == nil {
		t.Fatal("shadowing a built-in profile accepted")
	}
	// Profiles are process-global, so the name is unique per run: the test
	// stays repeatable under -count=N.
	profileSeq++
	name := fmt.Sprintf("prof-test-tiny-%d", profileSeq)
	if err := RegisterProfile(Profile{Name: name, Description: "t", Config: Small()}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ProfileByName(name); !ok {
		t.Fatal("registered profile not found")
	}
	if err := RegisterProfile(Profile{Name: name, Config: Small()}); err == nil {
		t.Fatal("re-registering a profile name accepted")
	}
}

// overrideSamples holds one valid value per override key, each different
// from Small()'s field.
var overrideSamples = map[string]string{
	"seed":                 "99",
	"subarrays-per-module": "7",
	"ttf-samples":          "11",
	"mixes":                "5",
	"measure-instr":        "123456",
	"cell-rows":            "64",
	"cell-cols":            "96",
	"max-shard-share":      "0.5",
}

// TestApplyOverridesEveryKey drives every entry of the key table: each key
// alone must move exactly one Config field and the digest, and every
// exported Config field must be moved by exactly one key. A field added
// without a key, or a key whose setter moves no field (or several), fails.
func TestApplyOverridesEveryKey(t *testing.T) {
	base := Small()
	if len(overrideSamples) != len(overrideFields) {
		t.Fatalf("overrideSamples has %d keys, the key table %d", len(overrideSamples), len(overrideFields))
	}
	rt := reflect.TypeOf(base)
	keysPerField := make(map[string][]string)
	for _, f := range overrideFields {
		v, ok := overrideSamples[f.key]
		if !ok {
			t.Fatalf("override key %q has no sample value", f.key)
		}
		got, err := ApplyOverrides(base, map[string]string{f.key: v})
		if err != nil {
			t.Fatalf("%s=%s: %v", f.key, v, err)
		}
		if got.Digest() == base.Digest() {
			t.Errorf("%s=%s: digest unchanged", f.key, v)
		}
		gv, bv := reflect.ValueOf(got), reflect.ValueOf(base)
		var moved []string
		for i := 0; i < rt.NumField(); i++ {
			if gv.Field(i).Interface() != bv.Field(i).Interface() {
				moved = append(moved, rt.Field(i).Name)
			}
		}
		if len(moved) != 1 {
			t.Errorf("%s=%s moved fields %v, want exactly one", f.key, v, moved)
			continue
		}
		keysPerField[moved[0]] = append(keysPerField[moved[0]], f.key)
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if !rt.Field(i).IsExported() {
			continue
		}
		if keys := keysPerField[name]; len(keys) != 1 {
			t.Errorf("Config.%s is set by override keys %v, want exactly one", name, keys)
		}
	}

	// All keys at once compose field by field.
	got, err := ApplyOverrides(base, overrideSamples)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		SubarraysPerModule: 7, TTFSamples: 11, Mixes: 5, MeasureInstr: 123456,
		CellRows: 64, CellCols: 96, MaxShardShare: 0.5, Seed: 99,
	}
	if got != want {
		t.Fatalf("ApplyOverrides = %+v, want %+v", got, want)
	}
}

func TestApplyOverridesErrors(t *testing.T) {
	base := Small()
	for name, ov := range map[string]map[string]string{
		"unknown key":    {"workers": "4"},
		"not an integer": {"mixes": "three"},
		"zero count":     {"ttf-samples": "0"},
		"negative seed":  {"seed": "-1"},
	} {
		got, err := ApplyOverrides(base, ov)
		if err == nil {
			t.Fatalf("%s: accepted %v", name, ov)
		}
		if got != base {
			t.Fatalf("%s: config mutated on error: %+v", name, got)
		}
	}
	// Unknown-key errors teach the valid vocabulary.
	_, err := ApplyOverrides(base, map[string]string{"nope": "1"})
	if err == nil || !strings.Contains(err.Error(), "subarrays-per-module") {
		t.Fatalf("unknown-key error does not list valid keys: %v", err)
	}
}

func TestResolveConfig(t *testing.T) {
	cfg, err := ResolveConfig("", nil)
	if err != nil || cfg != Small() {
		t.Fatalf("empty profile resolves to %+v, %v (want small)", cfg, err)
	}
	cfg, err = ResolveConfig("full", map[string]string{"seed": "3"})
	if err != nil {
		t.Fatal(err)
	}
	want := Full()
	want.Seed = 3
	if cfg != want {
		t.Fatalf("full+seed=3 resolves to %+v", cfg)
	}
	if _, err := ResolveConfig("nope", nil); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := ResolveConfig("small", map[string]string{"bad": "1"}); err == nil {
		t.Fatal("bad override accepted")
	}
	// Same resolution ⇒ same digest: the property remote/local cache
	// sharing rests on.
	a, _ := ResolveConfig("small", map[string]string{"seed": "5"})
	b, _ := ResolveConfig("small", map[string]string{"seed": "5"})
	if a.Digest() != b.Digest() {
		t.Fatal("identical requests resolved to different digests")
	}
}
