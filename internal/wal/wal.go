// Package wal is an append-only, checksummed, versioned record log — the
// durability substrate of the serve plane (DESIGN.md §14). A Log owns a
// directory of segment files; every record is framed with a length prefix
// and a CRC, so replay-on-open can reconstruct exactly the records that
// reached disk and cut a torn tail left by a crash mid-write.
//
// The contract, in order of importance:
//
//   - A record acknowledged by AppendSync survives a crash, and so does
//     every record appended before it or before a successful Close.
//   - Replay never invents records: a frame is returned only when its
//     length, checksum and segment header all verify.
//   - A torn tail — the partially written frame a SIGKILL leaves at the
//     end of the newest segment — is truncated silently. Corruption
//     anywhere else (an older, previously fsynced segment) is an error:
//     it means lost history, not an interrupted write, and the caller
//     must decide, not guess.
//
// One mutex serializes every operation. Append buffers; AppendSync
// flushes and fsyncs under the lock, so each call is one disk barrier —
// the journal's traffic is one synced record per submission, too sparse
// for batching to pay.
//
// Each Open writes exactly one new segment: it replays the existing ones
// read-only and starts a fresh one, so a replay boundary is always a file
// boundary. DropHistory deletes the segments a Log inherited at Open — the
// compaction hook: once the application has re-journaled the live state
// into the new segment, the old generations are dead weight.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

const (
	// magic opens every segment file: format name and version. Bumping the
	// version makes old logs unreadable by construction instead of
	// misreadable.
	magic = "cdwal/1\n"
	// frameHeader is the per-record overhead: u32 payload length and u32
	// CRC-32C, both little-endian, followed by the payload (type byte +
	// data).
	frameHeader = 8
	// MaxRecordSize bounds one record's payload (type byte + data). The
	// cap exists so replay can reject an insane length prefix (torn or
	// corrupt) without attempting a gigabyte allocation.
	MaxRecordSize = 16 << 20
)

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed (or abandoned) log.
var ErrClosed = errors.New("wal: closed")

// ErrCorrupt reports corruption outside the replayable torn-tail case: a
// bad frame in a non-final segment, i.e. lost history.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Options configures a Log.
type Options struct {
	// Dir holds the segment files. Created if missing.
	Dir string
}

// Record is one journaled entry: an application-defined type tag and an
// opaque payload.
type Record struct {
	Type byte
	Data []byte
}

// Stats counts a Log's activity since Open, plus what replay found.
type Stats struct {
	Records  int64 // records appended this session
	Bytes    int64 // frame bytes appended this session
	Syncs    int64 // fsync barriers issued (AppendSync, DropHistory, Close)
	Segments int   // segment files on disk (inherited + active)
	// Truncated reports that Open cut a torn tail off the newest inherited
	// segment — the expected signature of a crash mid-append.
	Truncated bool
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir string

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	inherited []int // segments replayed at Open; DropHistory's victims
	dirty     bool  // records appended since the last fsync
	err       error // first write/sync error; the log is dead once set
	closed    bool
	stats     Stats
}

// segName formats a segment number as its file name. Fixed-width decimal
// keeps lexical and numeric order identical.
func segName(n int) string { return fmt.Sprintf("%08d.wal", n) }

// Open replays every segment in dir (in segment order) and returns the
// recovered records together with a log ready for appends. The newest
// segment may carry a torn tail, which Open truncates; any other decode
// failure returns ErrCorrupt. The returned log writes to ONE new segment,
// whose directory entry is fsynced before Open returns — inherited ones
// are never appended to, and DropHistory deletes them once the caller has
// re-journaled what it still needs.
func Open(opts Options) (*Log, []Record, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: opts.Dir}

	var records []Record
	next := 1
	for i, seg := range segs {
		path := filepath.Join(opts.Dir, segName(seg))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		final := i == len(segs)-1
		if len(data) == 0 {
			// A crash between create and header write leaves an empty file;
			// it holds nothing, so drop it regardless of position.
			_ = os.Remove(path)
			continue
		}
		recs, good, clean := replaySegment(data)
		switch {
		case clean:
		case !final:
			return nil, nil, fmt.Errorf("%w: %s: bad frame at offset %d (not the newest segment)", ErrCorrupt, path, good)
		case good < len(magic):
			// The newest segment's torn spot is inside the header itself:
			// nothing replayable, remove the file.
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			l.stats.Truncated = true
			continue // not inherited
		default:
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			l.stats.Truncated = true
		}
		records = append(records, recs...)
		l.inherited = append(l.inherited, seg)
		next = seg + 1
	}

	if err := l.createSegment(next); err != nil {
		return nil, nil, err
	}
	return l, records, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, ent := range ents {
		var n int
		if _, err := fmt.Sscanf(ent.Name(), "%d.wal", &n); err == nil && segName(n) == ent.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// createSegment creates the active segment, buffers its header and
// fsyncs the directory, so the new file's entry is durable before the
// first AppendSync can acknowledge a record in it — and before
// DropHistory can delete the generations it replaces.
func (l *Log) createSegment(seg int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	// The header rides the first sync: a crash before it leaves an empty
	// file, which the next Open removes.
	_, _ = l.w.WriteString(magic) // cannot fail: the buffer is larger than magic
	return nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// replaySegment decodes one segment image. It returns the records that
// verify, the byte offset just past the last good frame, and whether the
// segment decoded cleanly to its end. It never panics, whatever the
// input — the fuzz suite holds it to that.
func replaySegment(data []byte) (recs []Record, good int, clean bool) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, false
	}
	off := len(magic)
	for off < len(data) {
		if len(data)-off < frameHeader {
			return recs, off, false
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n < 1 || n > MaxRecordSize || len(data)-off-frameHeader < n {
			return recs, off, false
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, off, false
		}
		recs = append(recs, Record{Type: payload[0], Data: append([]byte(nil), payload[1:]...)})
		off += frameHeader + n
	}
	return recs, off, true
}

// appendFrame encodes one record's frame into buf (test and fuzz helper;
// the write path encodes directly into the buffered writer).
func appendFrame(buf []byte, r Record) []byte {
	payload := make([]byte, 0, 1+len(r.Data))
	payload = append(payload, r.Type)
	payload = append(payload, r.Data...)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append buffers one record. It is NOT durable until a later AppendSync,
// DropHistory or Close covers it — callers journaling a must-survive
// transition use AppendSync.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(r)
}

func (l *Log) appendLocked(r Record) error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if 1+len(r.Data) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", 1+len(r.Data))
	}
	var hdr [frameHeader + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(1+len(r.Data)))
	crc := crc32.Update(crc32.Checksum([]byte{r.Type}, castagnoli), castagnoli, r.Data)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	hdr[frameHeader] = r.Type
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = err
		return err
	}
	if _, err := l.w.Write(r.Data); err != nil {
		l.err = err
		return err
	}
	n := int64(frameHeader + 1 + len(r.Data))
	l.dirty = true
	l.stats.Records++
	l.stats.Bytes += n
	return nil
}

// AppendSync appends one record and waits for it to be durable: it
// flushes the buffer and fsyncs the segment before it returns.
func (l *Log) AppendSync(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(r); err != nil {
		return err
	}
	return l.syncLocked()
}

// syncLocked flushes the buffer and fsyncs the active segment, unless
// nothing was written since the last fsync. The first failure latches:
// every later call returns it.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	l.stats.Syncs++
	l.dirty = false
	return nil
}

// DropHistory deletes the segments inherited at Open — compaction, for
// after the caller re-journals the still-live state into the active
// segment. The active segment is synced first so the re-journaled state
// is durable before its only other copy disappears.
func (l *Log) DropHistory() error {
	l.mu.Lock()
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	victims := l.inherited
	l.inherited = nil
	l.mu.Unlock()
	for _, seg := range victims {
		if err := os.Remove(filepath.Join(l.dir, segName(seg))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.inherited) + 1
	return st
}

// Close flushes, fsyncs and closes the log. Records appended before Close
// are durable when it returns nil.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if ferr := l.f.Close(); err == nil {
		err = ferr
	}
	return err
}

// Abandon drops the log without flushing buffered records to disk —
// the closest a test gets to SIGKILL. Records already covered by a sync
// stay on disk; buffered ones vanish, exactly as a crash would lose them.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	_ = l.f.Close() // without flushing l.w: the buffer is dropped
}
