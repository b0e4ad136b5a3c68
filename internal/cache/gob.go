package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
)

// Gob turns shard results into cacheable bytes and back, so one codec
// serves every experiment, the cache and the remote worker reply path
// alike. It must round-trip values exactly: the byte-identical-report
// guarantee rests on Decode(Encode(v)) being indistinguishable from v to
// the experiment's merge step. Each experiment registers the concrete type
// of its shard results once via RegisterType.
//
// An entry is the part's registered type name (uvarint length, then the
// bytes) followed by a self-contained gob stream of the concrete value:
// the type-definition messages, then one value message. Every entry is its
// own stream, so a fresh gob.Decoder would re-read the definitions and
// recompile its decoding engine per entry. Decode instead keeps idle
// decoders that have already consumed a stream's definition messages and
// feeds them only the value message of a later entry whose definition
// bytes are identical. Gob type ids follow the writing process's first-use
// order, so the definition bytes, not the type alone, say which decoder
// fits.
type Gob struct{}

// gobType is one registered part type and its pool of warm decoders. The
// pool holds one definition prefix, the one every entry written by a
// single process carries; an entry with other definition bytes replaces
// it. Its idle list is bounded by GOMAXPROCS, the number of decodes the
// engine and the dispatcher run at once by default.
type gobType struct {
	name string
	typ  reflect.Type

	mu   sync.Mutex
	defs string         // the definition bytes every idle decoder consumed
	idle []*warmDecoder // at most GOMAXPROCS
}

// warmDecoder is a gob.Decoder over a reader whose bytes are swapped per
// entry. bytes.Reader is an io.ByteReader, so gob reads it directly and
// never buffers past the message it decodes.
type warmDecoder struct {
	r   bytes.Reader
	dec *gob.Decoder
}

var registry struct {
	sync.RWMutex
	byName map[string]*gobType
	byType map[reflect.Type]*gobType
}

// RegisterType records a concrete shard-result type with the gob codec.
// Call it from the experiment's init alongside registration; encoding an
// unregistered type is an error surfaced by Encode, and decoding an entry
// naming one is an error surfaced by Decode. Every experiment's parts must
// round-trip this codec — the cache, the remote worker reply path and the
// merge all depend on it — and the registry-wide audit test
// (TestShardPartsGobEncodable in internal/experiments) fails any plan
// whose parts are unregistered, carry unexported fields, or decode into a
// different report.
func RegisterType(v any) {
	// gob.Register panics on a name clash, and its name ↔ type mapping
	// serves any interface-typed field inside a part.
	gob.Register(v)
	t := reflect.TypeOf(v)
	registry.Lock()
	defer registry.Unlock()
	if registry.byType[t] != nil {
		return
	}
	if registry.byName == nil {
		registry.byName = make(map[string]*gobType)
		registry.byType = make(map[reflect.Type]*gobType)
	}
	gt := &gobType{name: gobName(t), typ: t}
	registry.byName[gt.name] = gt
	registry.byType[t] = gt
}

// gobName is the codec's own name for t, unique per type: a named type (or
// a pointer to one) is qualified by its import path, any other type is its
// string. It keys only the codec's registry and need not equal the name
// gob.Register gives t.
func gobName(t reflect.Type) string {
	star := ""
	rt := t
	if rt.Name() == "" && rt.Kind() == reflect.Pointer {
		star, rt = "*", rt.Elem()
	}
	switch {
	case rt.Name() == "":
		return t.String()
	case rt.PkgPath() == "":
		return star + rt.Name()
	default:
		return star + rt.PkgPath() + "." + rt.Name()
	}
}

// Encode serializes v, whose concrete type must be registered.
func (Gob) Encode(v any) ([]byte, error) {
	registry.RLock()
	gt := registry.byType[reflect.TypeOf(v)]
	registry.RUnlock()
	if gt == nil {
		return nil, fmt.Errorf("cache: encode: type %T not registered", v)
	}
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(nil, uint64(len(gt.name))))
	buf.WriteString(gt.name)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("cache: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes bytes produced by Encode. A warm decoder that fails
// is dropped and the entry decoded again by a fresh one, so the result and
// error are always a fresh decoder's.
func (Gob) Decode(data []byte) (any, error) {
	gt, stream, err := splitName(data)
	if err != nil {
		return nil, fmt.Errorf("cache: decode: %w", err)
	}
	defs, framed := splitDefs(stream)
	if framed {
		if w := gt.take(defs); w != nil {
			if v, err := w.decode(gt.typ, stream[len(defs):]); err == nil {
				gt.give(defs, w)
				return v, nil
			}
		}
	}
	w := newWarmDecoder()
	v, err := w.decode(gt.typ, stream)
	if err != nil {
		return nil, fmt.Errorf("cache: decode: %w", err)
	}
	if framed {
		gt.give(defs, w)
	}
	return v, nil
}

// splitName reads an entry's leading type name and returns its registered
// type and the gob stream after it.
func splitName(data []byte) (*gobType, []byte, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n > uint64(len(data)-w) {
		return nil, nil, errors.New("malformed type name")
	}
	name, stream := data[w:w+int(n)], data[w+int(n):]
	registry.RLock()
	gt := registry.byName[string(name)]
	registry.RUnlock()
	if gt == nil {
		return nil, nil, fmt.Errorf("unregistered type name %q", name)
	}
	return gt, stream, nil
}

// splitDefs returns the leading type-definition messages of a gob stream,
// read by gob's framing: each message is a byte count, then a signed type
// id, negative for a definition. The first message with a non-negative id
// carries the value. framed is false when the stream ends or breaks
// before one; the fresh decoder then reports why.
func splitDefs(stream []byte) (defs []byte, framed bool) {
	for off := 0; off < len(stream); {
		count, w, ok := gobUint(stream[off:])
		if !ok || count > uint64(len(stream)-off-w) {
			return nil, false
		}
		id, _, ok := gobUint(stream[off+w : off+w+int(count)])
		if !ok {
			return nil, false
		}
		if id&1 == 0 { // gob's signed ints keep the sign in bit 0
			return stream[:off], true
		}
		off += w + int(count)
	}
	return nil, false
}

// gobUint decodes one of gob's unsigned integers: a byte below 0x80 is the
// value, otherwise it is the negated count of big-endian bytes that follow.
func gobUint(b []byte) (x uint64, width int, ok bool) {
	if len(b) == 0 {
		return 0, 0, false
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1, true
	}
	n := -int(int8(b[0]))
	if n > 8 || n >= len(b) {
		return 0, 0, false
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n, true
}

// take lends out an idle decoder that consumed exactly defs, or nil.
func (gt *gobType) take(defs []byte) *warmDecoder {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	n := len(gt.idle)
	if n == 0 || gt.defs != string(defs) {
		return nil
	}
	w := gt.idle[n-1]
	gt.idle[n-1] = nil
	gt.idle = gt.idle[:n-1]
	return w
}

// give returns a decoder that has consumed defs and then decoded one
// value without error. Other definition bytes replace the pool's prefix
// and drop its idle decoders; a full idle list drops w.
func (gt *gobType) give(defs []byte, w *warmDecoder) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if gt.defs != string(defs) {
		clear(gt.idle)
		gt.defs, gt.idle = string(defs), gt.idle[:0]
	}
	if len(gt.idle) < runtime.GOMAXPROCS(0) {
		gt.idle = append(gt.idle, w)
	}
}

func newWarmDecoder() *warmDecoder {
	w := &warmDecoder{}
	w.dec = gob.NewDecoder(&w.r)
	return w
}

// decode reads one value of type t from msgs: the definition messages it
// has not yet seen, if any, then the value message.
func (w *warmDecoder) decode(t reflect.Type, msgs []byte) (any, error) {
	w.r.Reset(msgs)
	p := reflect.New(t)
	err := w.dec.DecodeValue(p)
	w.r.Reset(nil) // hold no reference to the entry while idle
	if err != nil {
		return nil, err
	}
	return p.Elem().Interface(), nil
}
