// Package cache is the content-addressed shard-result cache of the
// experiment service (see DESIGN.md §8).
//
// A cache entry is keyed by (experiment ID, config digest, shard label):
// the experiment and shard name the unit of work, and the config digest —
// a hash of every field of the experiment configuration — pins the inputs
// it ran under. Because shards are pure functions of (config, shard key)
// by the engine's determinism contract, a key collision-free lookup is a
// correctness-preserving skip: re-running a sweep after a config tweak
// recomputes exactly the shards whose keys changed and replays the rest.
//
// The store is a two-level hierarchy: an in-memory LRU backed by an
// optional on-disk directory so warm results survive process restarts.
// Both levels are bounded twice over — by entry count (Options.MaxEntries,
// memory only) and by payload bytes (Options.MaxBytes, accounted in both
// levels; the disk level evicts least-recently-used files, surviving
// process restarts by rebuilding its accounting from a directory scan).
// Disk entries are checksummed; a corrupted or truncated file is treated
// as a miss, deleted to reclaim its bytes, and silently repaired by the
// next Put, never surfaced as an error. Values are opaque bytes — encoding
// is the caller's business.
//
// Gob is the codec every caller uses. An entry is the part's registered
// type name followed by a self-contained gob stream of the concrete value
// (its type-definition messages, then one value message). Decode keeps, per
// registered type, up to GOMAXPROCS idle gob decoders that have already
// read one definition prefix, and hands a later entry with byte-identical
// definitions only its value message, so a replay of many entries of one
// type compiles gob's decoding engine once, not once per entry. A warm
// decoder that errors is dropped and the entry decoded fresh, so results
// and errors never depend on which decoder ran.
package cache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Key identifies one cached shard result.
type Key struct {
	// Experiment is the experiment ID the shard belongs to.
	Experiment string
	// ConfigDigest is a stable hash of the experiment configuration
	// (experiments.Config.Digest): any config change changes every key.
	ConfigDigest string
	// Shard is the shard's label, unique within an experiment's plan.
	Shard string
}

// digest returns the key's content address: a hex SHA-256 over the three
// components with an unambiguous separator (labels cannot smuggle one
// component's bytes into another's).
func (k Key) digest() string {
	h := sha256.New()
	for _, part := range []string{k.Experiment, k.ConfigDigest, k.Shard} {
		fmt.Fprintf(h, "%d:%s,", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Options configures a Store.
type Options struct {
	// MaxEntries bounds the in-memory level by entry count
	// (<= 0 selects 4096).
	MaxEntries int
	// MaxBytes bounds each level by payload bytes (<= 0 = unbounded).
	// The in-memory level accounts the raw payload; the on-disk level
	// accounts full file sizes (payload plus header). An entry larger than
	// MaxBytes is not retained at all — it is computed, offered, and
	// immediately evicted, so one pathological shard cannot pin the cache.
	MaxBytes int64
	// Dir enables the on-disk level: entries are spilled there on Put and
	// faulted back in on Get, so a fresh process pointed at the same
	// directory starts warm.
	Dir string
}

// Stats counts cache traffic since the store was created, plus the current
// size of each level.
type Stats struct {
	// Hits and Misses count Get outcomes; DiskHits is the subset of Hits
	// served from the on-disk store rather than memory.
	Hits, Misses, DiskHits int64
	// Puts counts stored entries; Corrupt counts on-disk entries rejected
	// by the checksum (each also counted as a miss).
	Puts, Corrupt int64
	// MemEvictions and DiskEvictions count entries expelled from each level
	// by the entry or byte bound.
	MemEvictions, DiskEvictions int64
	// MemBytes and DiskBytes are the levels' current payload footprints
	// (disk includes per-file header overhead).
	MemBytes, DiskBytes int64
}

// Store is a bounded in-memory LRU with an optional on-disk second level.
// All methods are goroutine-safe. Byte slices returned by Get and handed
// to Put are shared, not copied: callers must not mutate them.
type Store struct {
	opts Options

	mu       sync.Mutex
	ll       *list.List // front = most recently used
	idx      map[Key]*list.Element
	memBytes int64
	stats    Stats

	// The disk level keeps its own recency list and byte accounting,
	// guarded separately so disk I/O never extends the memory level's
	// critical section.
	dmu       sync.Mutex
	dll       *list.List // front = most recently used file
	didx      map[string]*list.Element
	diskBytes int64
	dstats    struct{ evictions int64 }
}

type entry struct {
	key  Key
	data []byte
}

type diskEntry struct {
	path string
	size int64
}

// New creates a store from the given options. A non-empty Dir enables the
// on-disk level; its accounting is seeded by scanning the directory, so
// byte bounds hold across process restarts (an over-budget directory is
// trimmed immediately, oldest files first).
func New(opts Options) (*Store, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	s := &Store{
		opts: opts,
		ll:   list.New(),
		idx:  make(map[Key]*list.Element),
		dll:  list.New(),
		didx: make(map[string]*list.Element),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		if err := s.scanDisk(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Backend is the store interface the service caches shard results
// through. *Store is the in-process implementation; the seam exists so a
// replica fleet can later share one content-addressed backend (a network
// store satisfying the same three methods) without touching the service.
// Implementations must be safe for concurrent use and treat Get misses
// and Put failures as performance events, not errors — the service
// recomputes on a miss and drops the fill on a failed Put.
type Backend interface {
	Get(k Key) ([]byte, bool)
	Put(k Key, data []byte) error
	Stats() Stats
}

var _ Backend = (*Store)(nil)

// Get returns the cached bytes for k, consulting memory first and then the
// on-disk level. The second result is false on a miss (including corrupted
// disk entries). The memory level is keyed by k itself; only the disk
// level hashes it, for a file name.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.idx[k]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		data := el.Value.(*entry).data
		s.mu.Unlock()
		return data, true
	}
	s.mu.Unlock()

	if s.opts.Dir != "" {
		data, ok, corrupt := s.readDisk(k)
		s.mu.Lock()
		if ok {
			s.stats.Hits++
			s.stats.DiskHits++
			s.insertLocked(k, data)
			s.mu.Unlock()
			return data, true
		}
		if corrupt {
			s.stats.Corrupt++
		}
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}

	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return nil, false
}

// Put stores data under k in memory and, when enabled, on disk. The
// returned error reports only disk-spill failures; the in-memory insert
// always succeeds, so callers may treat the error as advisory.
func (s *Store) Put(k Key, data []byte) error {
	s.mu.Lock()
	s.insertLocked(k, data)
	s.stats.Puts++
	s.mu.Unlock()
	if s.opts.Dir == "" {
		return nil
	}
	return s.writeDisk(k, data)
}

// Stats returns a snapshot of the traffic counters and level sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.MemBytes = s.memBytes
	s.mu.Unlock()
	s.dmu.Lock()
	st.DiskBytes = s.diskBytes
	st.DiskEvictions = s.dstats.evictions
	s.dmu.Unlock()
	return st
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// DiskLen returns the number of on-disk entries (0 when the disk level is
// disabled).
func (s *Store) DiskLen() int {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	return s.dll.Len()
}

// insertLocked adds or refreshes an entry, keeps the byte accounting, and
// evicts from the LRU tail while either bound is exceeded. Caller holds
// s.mu.
func (s *Store) insertLocked(k Key, data []byte) {
	if el, ok := s.idx[k]; ok {
		e := el.Value.(*entry)
		s.memBytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		s.ll.MoveToFront(el)
	} else {
		s.idx[k] = s.ll.PushFront(&entry{key: k, data: data})
		s.memBytes += int64(len(data))
	}
	for s.ll.Len() > 0 &&
		(s.ll.Len() > s.opts.MaxEntries || (s.opts.MaxBytes > 0 && s.memBytes > s.opts.MaxBytes)) {
		tail := s.ll.Back()
		e := tail.Value.(*entry)
		s.ll.Remove(tail)
		delete(s.idx, e.key)
		s.memBytes -= int64(len(e.data))
		s.stats.MemEvictions++
	}
}

// Disk layout: <dir>/<sanitized experiment>/<key digest>.cds, written
// atomically (temp file + rename). Each file carries a magic header and a
// payload checksum so torn writes and bit rot degrade to misses.
const diskMagic = "cdcache1\n"

func (s *Store) diskPath(k Key) string {
	return filepath.Join(s.opts.Dir, sanitize(k.Experiment), k.digest()+".cds")
}

// sanitize maps an experiment ID onto a safe directory name.
func sanitize(id string) string {
	if id == "" {
		return "_"
	}
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if strings.Trim(b.String(), ".") == "" {
		return "_"
	}
	return b.String()
}

// scanDisk seeds the disk level's byte accounting and recency list from the
// directory's existing entries (oldest modification first, so eviction
// order survives restarts), then trims any pre-existing overage.
func (s *Store) scanDisk() error {
	type fileInfo struct {
		path  string
		size  int64
		mtime int64
	}
	var files []fileInfo
	err := filepath.WalkDir(s.opts.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			// A write interrupted mid-spill left its temp file behind; it
			// holds bytes the MaxBytes accounting would never see, so
			// reclaim it now.
			_ = os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(path, ".cds") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent delete: skip
		}
		files = append(files, fileInfo{path, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("cache: scan %s: %w", s.opts.Dir, err)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].path < files[j].path
	})
	s.dmu.Lock()
	defer s.dmu.Unlock()
	for _, f := range files {
		// Oldest pushed first ends up at the back — first out.
		s.didx[f.path] = s.dll.PushFront(&diskEntry{path: f.path, size: f.size})
		s.diskBytes += f.size
	}
	s.evictDiskLocked()
	return nil
}

// touchDisk marks one on-disk entry recently used (or adopts a file written
// by an earlier process generation). Caller must NOT hold dmu.
func (s *Store) touchDisk(path string, size int64) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if el, ok := s.didx[path]; ok {
		s.dll.MoveToFront(el)
		return
	}
	s.didx[path] = s.dll.PushFront(&diskEntry{path: path, size: size})
	s.diskBytes += size
	s.evictDiskLocked()
}

// dropDisk removes one on-disk entry and its accounting (corrupt file
// cleanup). Caller must NOT hold dmu.
func (s *Store) dropDisk(path string) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	_ = os.Remove(path)
	if el, ok := s.didx[path]; ok {
		s.diskBytes -= el.Value.(*diskEntry).size
		s.dll.Remove(el)
		delete(s.didx, path)
	}
}

// evictDiskLocked deletes least-recently-used files while the disk level
// exceeds its byte bound. Caller holds dmu.
func (s *Store) evictDiskLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.diskBytes > s.opts.MaxBytes && s.dll.Len() > 0 {
		tail := s.dll.Back()
		de := tail.Value.(*diskEntry)
		_ = os.Remove(de.path)
		s.dll.Remove(tail)
		delete(s.didx, de.path)
		s.diskBytes -= de.size
		s.dstats.evictions++
	}
}

// readDisk loads and verifies one on-disk entry. ok reports a valid hit;
// corrupt reports a present-but-invalid file (bad magic, bad checksum,
// truncation) — treated as a miss by the caller and deleted so its bytes
// are reclaimed.
func (s *Store) readDisk(k Key) (data []byte, ok, corrupt bool) {
	path := s.diskPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	if !bytes.HasPrefix(raw, []byte(diskMagic)) {
		s.dropDisk(path)
		return nil, false, true
	}
	rest := raw[len(diskMagic):]
	if len(rest) < sha256.Size {
		s.dropDisk(path)
		return nil, false, true
	}
	sum, payload := rest[:sha256.Size], rest[sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		s.dropDisk(path)
		return nil, false, true
	}
	s.touchDisk(path, int64(len(raw)))
	return payload, true, false
}

// writeDisk spills one entry atomically and folds it into the disk level's
// accounting, evicting older files if the byte bound is now exceeded.
func (s *Store) writeDisk(k Key, data []byte) error {
	path := s.diskPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, len(diskMagic)+len(sum)+len(data))
	buf = append(buf, diskMagic...)
	buf = append(buf, sum[:]...)
	buf = append(buf, data...)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}

	s.dmu.Lock()
	defer s.dmu.Unlock()
	size := int64(len(buf))
	if el, ok := s.didx[path]; ok {
		de := el.Value.(*diskEntry)
		s.diskBytes += size - de.size
		de.size = size
		s.dll.MoveToFront(el)
	} else {
		s.didx[path] = s.dll.PushFront(&diskEntry{path: path, size: size})
		s.diskBytes += size
	}
	s.evictDiskLocked()
	return nil
}
