package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// gobNested is a part type whose definition spans several gob type
// messages: a nested struct slice, a map and a slice of slices.
type gobNested struct {
	Name  string
	Rows  []gobPart
	Index map[string]int
	Grid  [][]float64
}

// codecSamples registers the test part types and returns one valid value
// of each.
func codecSamples() []any {
	RegisterType(gobPart{})
	RegisterType([]string(nil))
	RegisterType(gobNested{})
	return []any{
		gobPart{Label: "g", Values: []float64{1.5, -2.25, 0}, Count: 7},
		[]string{"a", "", "ccc"},
		gobNested{
			Name:  "n",
			Rows:  []gobPart{{Label: "r0", Count: 1}, {Values: []float64{3}}},
			Index: map[string]int{"x": 1, "y": -2},
			Grid:  [][]float64{{1, 2}, nil, {-0.5}},
		},
	}
}

// decodeFresh decodes an entry with a new decoder and no pool, the
// reference every warm decode must match.
func decodeFresh(data []byte) (any, error) {
	gt, stream, err := splitName(data)
	if err != nil {
		return nil, fmt.Errorf("cache: decode: %w", err)
	}
	v, err := newWarmDecoder().decode(gt.typ, stream)
	if err != nil {
		return nil, fmt.Errorf("cache: decode: %w", err)
	}
	return v, nil
}

// idleDecoders counts the pooled decoders of v's registered type.
func idleDecoders(v any) int {
	registry.RLock()
	gt := registry.byType[reflect.TypeOf(v)]
	registry.RUnlock()
	gt.mu.Lock()
	defer gt.mu.Unlock()
	return len(gt.idle)
}

// sameValue compares two decoded values by their Go-syntax text: unlike
// reflect.DeepEqual it holds for NaNs, which mutated float bytes produce.
func sameValue(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// TestGobWarmDecodeMatchesFresh: the second decode of an entry goes
// through a pooled decoder and returns what a fresh decoder returns.
func TestGobWarmDecodeMatchesFresh(t *testing.T) {
	codec := Gob{}
	for _, v := range codecSamples() {
		data, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := codec.Decode(data)
			if err != nil {
				t.Fatalf("%T decode %d: %v", v, i, err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("%T decode %d = %#v, want %#v", v, i, got, v)
			}
		}
		if idleDecoders(v) == 0 {
			t.Fatalf("%T: no idle decoder after three decodes", v)
		}
	}
}

// TestGobWarmDecoderErrorIsFresh: a value message a pooled decoder cannot
// read fails with the fresh decoder's error, and the failing decoder is
// not returned to the pool.
func TestGobWarmDecoderErrorIsFresh(t *testing.T) {
	codec := Gob{}
	v := codecSamples()[0]
	data, err := codec.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(data); err != nil {
		t.Fatal(err)
	}
	before := idleDecoders(v)
	// Retype the value message as a bool (gob type id 1, encoded 2): it
	// still frames, so the pooled decoder reads it and fails.
	gt, stream, err := splitName(data)
	if err != nil {
		t.Fatal(err)
	}
	defs, _ := splitDefs(stream)
	bad := append([]byte(nil), data...)
	bad[len(data)-len(stream)+len(defs)+1] = 2
	_, warmErr := codec.Decode(bad)
	_, freshErr := decodeFresh(bad)
	if warmErr == nil || freshErr == nil || warmErr.Error() != freshErr.Error() {
		t.Fatalf("%s entry retyped as bool: Decode error %v, fresh decoder error %v", gt.name, warmErr, freshErr)
	}
	if after := idleDecoders(v); after != before-1 {
		t.Fatalf("idle decoders %d after a failed warm decode, want %d", after, before-1)
	}
}

// TestGobOldFormatEntryIsError: an entry written before the type name led
// the stream (an interface-wrapped gob value) decodes as an error, so the
// cache's callers treat it as a miss, never as a wrong value.
func TestGobOldFormatEntryIsError(t *testing.T) {
	for _, v := range codecSamples() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Fatal(err)
		}
		if got, err := (Gob{}).Decode(buf.Bytes()); err == nil {
			t.Fatalf("%T: old-format entry decoded as %#v", v, got)
		}
	}
}

// TestGobPoolBounds: a type keeps one definition prefix with at most
// GOMAXPROCS idle decoders, and other definition bytes replace the prefix
// and its decoders.
func TestGobPoolBounds(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	gt := &gobType{name: "bounds", typ: reflect.TypeOf("")}
	for i := 0; i < procs+2; i++ {
		gt.give([]byte{0}, newWarmDecoder())
	}
	if len(gt.idle) != procs {
		t.Fatalf("%d idle decoders kept, want GOMAXPROCS = %d", len(gt.idle), procs)
	}
	gt.give([]byte{1}, newWarmDecoder())
	if gt.defs != "\x01" || len(gt.idle) != 1 {
		t.Fatalf("after another prefix: prefix %q with %d idle decoders, want %q with 1", gt.defs, len(gt.idle), "\x01")
	}
	if gt.take([]byte{0}) != nil {
		t.Fatal("a decoder of the replaced prefix was lent")
	}
	if gt.take([]byte{1}) == nil {
		t.Fatal("no idle decoder for the current prefix")
	}
	if gt.take([]byte{1}) != nil {
		t.Fatal("a decoder was lent twice")
	}
}

// TestGobConcurrentMixedDecodes decodes entries of every test type from
// several goroutines at once; run under -race it checks that a decoder is
// lent to one goroutine at a time.
func TestGobConcurrentMixedDecodes(t *testing.T) {
	codec := Gob{}
	samples := codecSamples()
	entries := make([][]byte, len(samples))
	for i, v := range samples {
		data, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = data
	}
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(entries)
				got, err := codec.Decode(entries[i])
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, samples[i]) {
					t.Errorf("goroutine %d round %d: decoded %#v, want %#v", g, r, got, samples[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, v := range samples {
		if idle := idleDecoders(v); idle > runtime.GOMAXPROCS(0) {
			t.Errorf("%T: pool holds %d idle decoders, more than GOMAXPROCS", v, idle)
		}
	}
}

// FuzzGobDecode mutates the value message of valid entries of each test
// type, keeping the type name and definition messages, and requires Decode
// through the pool, a pooled decoder used directly and a fresh decoder to
// agree: the same error, or the same value.
func FuzzGobDecode(f *testing.F) {
	samples := codecSamples()
	entries := make([][]byte, len(samples))
	heads := make([]int, len(samples)) // where each entry's value message starts
	for i, v := range samples {
		data, err := (Gob{}).Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		gt, stream, err := splitName(data)
		if err != nil {
			f.Fatal(err)
		}
		defs, framed := splitDefs(stream)
		if !framed {
			f.Fatalf("%s: valid entry does not frame", gt.name)
		}
		entries[i] = data
		heads[i] = len(data) - len(stream) + len(defs)
		f.Add(uint8(i), append([]byte(nil), data[heads[i]:]...))
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0x03, 0x80, 0x00, 0x00})
	f.Add(uint8(2), []byte{0x02, 0x01, 0x00})
	f.Fuzz(func(t *testing.T, which uint8, value []byte) {
		i := int(which) % len(entries)
		data := append(append([]byte(nil), entries[i][:heads[i]]...), value...)
		codec := Gob{}
		if _, err := codec.Decode(entries[i]); err != nil { // prime the pool
			t.Fatal(err)
		}
		fresh, freshErr := decodeFresh(data)
		got, err := codec.Decode(data)
		if (err == nil) != (freshErr == nil) || (err != nil && err.Error() != freshErr.Error()) {
			t.Fatalf("Decode error %v, fresh decoder error %v", err, freshErr)
		}
		if err == nil && !sameValue(got, fresh) {
			t.Fatalf("Decode = %#v, fresh decoder = %#v", got, fresh)
		}

		gt, stream, _ := splitName(data)
		defs, framed := splitDefs(stream)
		if !framed {
			return
		}
		w := gt.take(defs)
		if w == nil {
			return
		}
		warm, warmErr := w.decode(gt.typ, stream[len(defs):])
		if (warmErr == nil) != (freshErr == nil) {
			t.Fatalf("pooled decoder error %v, fresh decoder error %v", warmErr, freshErr)
		}
		if warmErr == nil && !sameValue(warm, fresh) {
			t.Fatalf("pooled decoder = %#v, fresh decoder = %#v", warm, fresh)
		}
	})
}
