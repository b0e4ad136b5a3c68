package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reopen closes nothing: it opens the directory fresh, as a restarted
// process would.
func reopen(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func checkRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}",
				i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
		}
	}
}

// TestRoundTrip is the basic durability contract: synced records come
// back on reopen, in order, byte for byte.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{
		{Type: 1, Data: []byte(`{"id":"job-1"}`)},
		{Type: 2, Data: nil},
		{Type: 3, Data: bytes.Repeat([]byte{0xA5}, 4096)},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := reopen(t, dir)
	defer l2.Close()
	checkRecords(t, got, want)
	if st := l2.Stats(); st.Truncated {
		t.Fatalf("stats after clean replay: %+v", st)
	}
}

// TestAbandonLosesOnlyUnsynced: records covered by Sync survive an
// Abandon (the crash simulation); buffered ones are gone.
func TestAbandonLosesOnlyUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	durable := Record{Type: 1, Data: []byte("durable")}
	if err := l.AppendSync(durable); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: 2, Data: []byte("buffered")}); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	if err := l.Append(Record{Type: 3}); err != ErrClosed {
		t.Fatalf("append after abandon: %v, want ErrClosed", err)
	}
	l2, got := reopen(t, dir)
	defer l2.Close()
	checkRecords(t, got, []Record{durable})
}

// TestTornTailTruncation: a partial frame at the end of the newest
// segment is cut, the records before it survive, and a second replay of
// the truncated file is clean (truncation converges).
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Type: 1, Data: []byte("one")}, {Type: 2, Data: []byte("two")}}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a frame by hand.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, Record{Type: 3, Data: []byte("torn away")})
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, got := reopen(t, dir)
	checkRecords(t, got, want)
	if !l2.Stats().Truncated {
		t.Fatal("torn tail not reported in stats")
	}
	l2.Close()

	l3, got3 := reopen(t, dir)
	defer l3.Close()
	checkRecords(t, got3, want)
	if l3.Stats().Truncated {
		t.Fatal("second replay still reports truncation: truncation did not converge")
	}
}

// TestCorruptMiddleSegmentErrors: a bad frame in a non-final segment is
// lost history and must fail Open, not silently truncate.
func TestCorruptMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSync(Record{Type: 1, Data: []byte("old generation")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A second generation, so segment 1 is no longer the newest.
	l2, _ := reopen(t, dir)
	if err := l2.AppendSync(Record{Type: 2, Data: []byte("new generation")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the old segment.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

// TestDropHistoryAcrossGenerations: three Open generations each add a
// segment and all replay in order; DropHistory then removes every
// inherited segment, never the current generation's.
func TestDropHistoryAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for gen := 0; gen < 3; gen++ {
		l, got := reopen(t, dir)
		checkRecords(t, got, want)
		for i := 0; i < 4; i++ {
			r := Record{Type: byte(gen + 1), Data: []byte(fmt.Sprintf("generation %d record %d", gen, i))}
			want = append(want, r)
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := listSegments(dir); len(segs) != 3 {
		t.Fatalf("three generations left %d segments, want 3", len(segs))
	}

	l2, got := reopen(t, dir)
	checkRecords(t, got, want)
	if st := l2.Stats(); st.Segments != 4 {
		t.Fatalf("Segments = %d, want 3 inherited + 1 active", st.Segments)
	}
	// Re-journal a compacted summary, then drop the inherited segments.
	summary := Record{Type: 9, Data: []byte("compacted")}
	if err := l2.AppendSync(summary); err != nil {
		t.Fatal(err)
	}
	if err := l2.DropHistory(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, got3 := reopen(t, dir)
	defer l3.Close()
	checkRecords(t, got3, []Record{summary})
}

// TestConcurrentAppendSync hammers AppendSync from many goroutines (run
// under -race in CI): every record must be replayable, and each call is
// its own fsync barrier.
func TestConcurrentAppendSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r := Record{Type: byte(w + 1), Data: []byte(fmt.Sprintf("w%d-%d", w, i))}
				if err := l.AppendSync(r); err != nil {
					t.Errorf("AppendSync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Records != writers*each {
		t.Fatalf("appended %d records, want %d", st.Records, writers*each)
	}
	if st.Syncs != writers*each {
		t.Fatalf("%d fsyncs for %d AppendSync calls", st.Syncs, writers*each)
	}
	l2, got := reopen(t, dir)
	defer l2.Close()
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

// TestOversizeRecordRejected: the size cap is enforced at append, not
// discovered at replay.
func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Type: 1, Data: make([]byte, MaxRecordSize)}); err == nil {
		t.Fatal("oversize record accepted")
	}
}
