package service

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/wal"
)

// mustJSON marshals a journal payload for hand-built record streams.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFoldRecords exercises the journal fold's state machine directly:
// last-write-wins per job, earliest-At preservation across resubmissions,
// retirement finality, the seq floor, the final-record-only clean
// marker, and legacy shard records folding silently.
func TestFoldRecords(t *testing.T) {
	early := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	late := early.Add(time.Hour)
	spec := JobSpec{Experiment: "table1"}
	recs := []wal.Record{
		{Type: recSubmitted, Data: mustJSON(t, submittedRec{ID: "job-1", Spec: spec, At: early})},
		{Type: recSubmitted, Data: mustJSON(t, submittedRec{ID: "job-2", Spec: spec, At: early})},
		// Shard records, as older versions wrote them once per computed shard.
		{Type: recShard, Data: []byte(`{"job":"job-1","experiment":"table1","digest":"d","shard":"s0"}`)},
		{Type: recShard, Data: []byte(`{"job":"job-1","experiment":"table1","digest":"d","shard":"s1"}`)},
		{Type: recSettled, Data: mustJSON(t, settledRec{ID: "job-2", State: JobDone})},
		{Type: recSubmitted, Data: mustJSON(t, submittedRec{ID: "job-3", Spec: spec, At: early})},
		{Type: recSettled, Data: mustJSON(t, settledRec{ID: "job-3", State: JobCanceled, Error: "canceled"})},
		{Type: recSubmitted, Data: mustJSON(t, submittedRec{ID: "job-4", Spec: spec, At: early})},
		{Type: recRetired, Data: mustJSON(t, idRec{ID: "job-4"})},
		// A recovery resubmitted job-1 with a LATER timestamp: the fold must
		// keep the original one, so the elapsed anchor spans every crash.
		{Type: recSubmitted, Data: mustJSON(t, submittedRec{ID: "job-1", Spec: spec, At: late})},
		{Type: recSeq, Data: mustJSON(t, seqRec{Last: 9})},
		{Type: recClean, Data: nil},
	}
	rec := foldRecords(recs)
	if rec.Skipped != 0 {
		t.Fatalf("fold skipped %d records", rec.Skipped)
	}
	if !rec.Clean {
		t.Fatal("fold missed the clean-shutdown marker")
	}
	if rec.LastSeq != 9 {
		t.Fatalf("LastSeq = %d, want 9", rec.LastSeq)
	}
	if len(rec.Jobs) != 3 {
		t.Fatalf("fold kept %d jobs, want 3 (job-4 retired)", len(rec.Jobs))
	}
	byID := map[string]RecoveredJob{}
	for _, j := range rec.Jobs {
		byID[j.ID] = j
	}
	if j := byID["job-1"]; j.State != "" || !j.At.Equal(early) {
		t.Fatalf("job-1 folded as %+v, want interrupted at the original time", j)
	}
	if j := byID["job-2"]; j.State != JobDone {
		t.Fatalf("job-2 folded as %q, want done", j.State)
	}
	if j := byID["job-3"]; j.State != JobCanceled {
		t.Fatalf("job-3 folded as %q, want canceled", j.State)
	}
	if _, resurrected := byID["job-4"]; resurrected {
		t.Fatal("retired job-4 resurrected")
	}

	// The clean marker only counts as the FINAL record: anything journaled
	// after it proves the process kept running past its "shutdown".
	recs = append(recs, wal.Record{Type: recSettled, Data: mustJSON(t, settledRec{ID: "job-1", State: JobDone})})
	if foldRecords(recs).Clean {
		t.Fatal("clean marker honored despite later records")
	}
}

// crashServices builds a journal-backed service over shared cache and WAL
// directories, returning both so tests can crash and resurrect it.
func openRecoverable(t *testing.T, dir string, workers int) (*Service, *Recovered) {
	t.Helper()
	store, err := cache.New(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	jn, rec, err := OpenJournal(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: workers, Cache: store, Journal: jn}), rec
}

// TestFoldMapsJournaledFullToProfile: a submitted record journaled before
// JobSpec.Profile existed carries full:true; the fold recovers it as the
// full profile instead of silently re-running it at the small one.
func TestFoldMapsJournaledFullToProfile(t *testing.T) {
	rec := foldRecords([]wal.Record{{Type: recSubmitted,
		Data: []byte(`{"id":"job-1","spec":{"experiment":"table1","full":true},"at":"2026-01-01T00:00:00Z"}`)}})
	if rec.Skipped != 0 || len(rec.Jobs) != 1 {
		t.Fatalf("fold: %d jobs, %d skipped", len(rec.Jobs), rec.Skipped)
	}
	if got := rec.Jobs[0].Spec; got.Profile != "full" || got.Experiment != "table1" {
		t.Fatalf("recovered spec %+v, want table1 at profile full", got)
	}
}

// TestCrashRecoveryResumesUnderOriginalID is the crash-recovery
// acceptance scenario in-process: a job is killed mid-run (journal
// abandoned, exactly what SIGKILL leaves on disk), a second service opens
// the same directories, recovers the job under its original ID, re-runs
// it with the settled shards returning as cache hits, and a client that
// kept its event position resumes the stream across the restart into one
// valid, gap-free sequence with a byte-identical result.
func TestCrashRecoveryResumesUnderOriginalID(t *testing.T) {
	const shards = 6
	started := make(chan string, shards)
	release := make(chan struct{}, shards)
	registerBlockingExperiment("svc-crash-recover", shards, started, release)
	dir := t.TempDir()

	svc1, rec := openRecoverable(t, dir, 2)
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(rec.Jobs))
	}
	svc1.Recover(rec)
	j1, err := svc1.Submit(JobSpec{Experiment: "svc-crash-recover"})
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() != "job-1" {
		t.Fatalf("first job ID %q", j1.ID())
	}

	// Let 3 of the 6 shards complete (their results land in the on-disk
	// cache), then crash.
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool { done, _ := j1.Progress(); return done >= 3 })
	preCrash := j1.EventHistory()
	if len(preCrash) < 5 { // queued, started, 3× shard_done
		t.Fatalf("pre-crash stream has %d events", len(preCrash))
	}

	// SIGKILL: the journal dies with its unsynced tail (the fsynced
	// submitted record survives), then the process "exits" — Close here
	// only reclaims goroutines; with a dead journal it can record nothing,
	// exactly like a killed process.
	svc1.journal.abandon()
	svc1.Close()

	svc2, rec2 := openRecoverable(t, dir, 2)
	defer svc2.Close()
	if len(rec2.Jobs) != 1 || rec2.Jobs[0].ID != "job-1" || rec2.Jobs[0].State != "" {
		t.Fatalf("fold after crash: %+v", rec2.Jobs)
	}
	if rec2.Clean {
		t.Fatal("crash replay claims a clean shutdown")
	}
	svc2.Recover(rec2)
	j2, ok := svc2.Job("job-1")
	if !ok {
		t.Fatal("recovered service does not know job-1")
	}
	if got := svc2.mRecovered.Value(); got != 1 {
		t.Fatalf("cdlab_jobs_recovered_total = %d, want 1", got)
	}

	// The journal never re-uses IDs across the crash, even though the
	// crash lost the seq record.
	extra, err := svc2.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if extra.ID() == "job-1" {
		t.Fatal("recovered service re-issued job-1")
	}

	// Release everything; the re-run needs only the 3 uncached shards to
	// actually execute, but extra tokens are harmless (buffered channel).
	for i := 0; i < shards; i++ {
		release <- struct{}{}
	}
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := j2.CacheCounts(); hits < 3 {
		t.Fatalf("re-run hit only %d cached shards, want >= 3", hits)
	}

	// A client that saw the first len(preCrash) events resumes from there:
	// the merged stream must be one valid, complete sequence.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	merged := append([]Event(nil), preCrash...)
	for ev := range j2.EventsFrom(ctx, len(preCrash)) {
		merged = append(merged, ev)
	}
	// 3 shard_done pre-crash plus the resumed suffix of the re-run stream
	// (whose early shard events the ?from= replay skips, because this
	// client already holds positions 0..len(preCrash)-1): together exactly
	// one complete 6-shard stream.
	checkEventStream(t, merged, shards, false)
	for _, ev := range merged {
		if ev.Job != "job-1" {
			t.Fatalf("merged stream carries event for %q", ev.Job)
		}
	}

	// Byte-identity: an uninterrupted run of the same spec renders the
	// same report.
	refSvc := New(Options{Workers: 2})
	defer refSvc.Close()
	refJob, err := refSvc.Submit(JobSpec{Experiment: "svc-crash-recover"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		release <- struct{}{}
	}
	ref, err := refJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, ref.Rows) || res.Title != ref.Title {
		t.Fatalf("recovered result differs from uninterrupted run:\n--- recovered ---\n%v\n--- reference ---\n%v",
			res.Rows, ref.Rows)
	}
}

// TestShutdownSuspendsAndResumes: a graceful Shutdown mid-run settles the
// client-visible stream with a cancellation but journals NO terminal, so
// the next open finds a clean shutdown and re-runs the job to completion.
func TestShutdownSuspendsAndResumes(t *testing.T) {
	const shards = 4
	started := make(chan string, shards)
	release := make(chan struct{}, shards)
	registerBlockingExperiment("svc-suspend", shards, started, release)
	dir := t.TempDir()

	svc1, rec := openRecoverable(t, dir, 2)
	svc1.Recover(rec)
	j1, err := svc1.Submit(JobSpec{Experiment: "svc-suspend"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // at least one shard is executing
	svc1.Shutdown()
	if j1.State() != JobCanceled {
		t.Fatalf("suspended job settled as %s", j1.State())
	}

	svc2, rec2 := openRecoverable(t, dir, 2)
	defer svc2.Close()
	if !rec2.Clean {
		t.Fatal("suspend did not record a clean shutdown")
	}
	if len(rec2.Jobs) != 1 || rec2.Jobs[0].State != "" {
		t.Fatalf("fold after suspend: %+v", rec2.Jobs)
	}
	if rec2.LastSeq != 1 {
		t.Fatalf("seq record names job %d, want the last issued, 1", rec2.LastSeq)
	}
	svc2.Recover(rec2)
	j2, ok := svc2.Job("job-1")
	if !ok {
		t.Fatal("resumed service does not know job-1")
	}
	for i := 0; i < shards; i++ {
		release <- struct{}{}
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkEventStream(t, j2.EventHistory(), shards, false)

	// A second clean cycle with the job settled: nothing left to recover.
	svc2.Shutdown()
	svc3, rec3 := openRecoverable(t, dir, 2)
	defer svc3.Close()
	if len(rec3.Jobs) != 1 || rec3.Jobs[0].State != JobDone {
		t.Fatalf("fold after completion: %+v", rec3.Jobs)
	}
}

// TestRecoverResurrectsDoneJobs: a finished job whose report may not have
// been fetched comes back after a restart — same ID, report served from
// the warm cache — while failed/canceled jobs stay dead.
func TestRecoverResurrectsDoneJobs(t *testing.T) {
	dir := t.TempDir()
	svc1, rec := openRecoverable(t, dir, 2)
	svc1.Recover(rec)
	jDone, err := svc1.Submit(JobSpec{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := jDone.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	jCancel, err := svc1.Submit(JobSpec{Experiment: "fig6"})
	if err != nil {
		t.Fatal(err)
	}
	jCancel.Cancel()
	<-jCancel.done
	svc1.Close() // full close: settles are journaled as final

	svc2, rec2 := openRecoverable(t, dir, 2)
	defer svc2.Close()
	svc2.Recover(rec2)
	j2, ok := svc2.Job(jDone.ID())
	if !ok {
		t.Fatal("done job not resurrected")
	}
	if _, gone := svc2.Job(jCancel.ID()); gone {
		t.Fatal("canceled job resurrected")
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.String() != res1.String() {
		t.Fatal("resurrected report differs from the original")
	}
	if hits, misses := j2.CacheCounts(); misses != 0 || hits == 0 {
		t.Fatalf("resurrection recomputed shards: hits=%d misses=%d", hits, misses)
	}
}

// TestJobIDsNeverReissued: the journal keeps the last issued job number
// across restarts. Canceled jobs are not resubmitted at recovery, so
// their IDs leave the WAL when it compacts; a second crash must still not
// hand them out again. A clean shutdown must not skip a number either.
func TestJobIDsNeverReissued(t *testing.T) {
	release := make(chan struct{}, 1)
	registerBlockingExperiment("svc-job-ids", 1, nil, release)
	submit := func(svc *Service) *Job {
		t.Helper()
		j, err := svc.Submit(JobSpec{Experiment: "svc-job-ids"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// crash stops svc as a SIGKILL does once the kernel holds every
	// appended record: the journal is flushed but has no clean marker.
	crash := func(svc *Service) {
		t.Helper()
		if err := svc.journal.log.Close(); err != nil {
			t.Fatal(err)
		}
		svc.Close()
	}
	restart := func(dir string) *Service {
		t.Helper()
		svc, rec := openRecoverable(t, dir, 1)
		svc.Recover(rec)
		return svc
	}

	t.Run("canceled-crash-restart-crash", func(t *testing.T) {
		dir := t.TempDir()
		svc := restart(dir)
		for i := 0; i < 2; i++ {
			j := submit(svc)
			j.Cancel()
			if _, err := j.Wait(context.Background()); err == nil {
				t.Fatal("canceled job succeeded")
			}
		}
		crash(svc)
		crash(restart(dir))
		svc = restart(dir)
		defer svc.Close()
		if id := submit(svc).ID(); id != "job-3" {
			t.Fatalf("first job after two crashes is %s, want job-3", id)
		}
	})

	t.Run("clean-shutdown", func(t *testing.T) {
		dir := t.TempDir()
		svc := restart(dir)
		j := submit(svc)
		release <- struct{}{}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		svc.Shutdown()
		svc = restart(dir)
		defer svc.Close()
		if id := submit(svc).ID(); id != "job-2" {
			t.Fatalf("first job after a clean shutdown is %s, want job-2", id)
		}
	})
}

// TestJournalTrafficPerJob: a cold job journals its lifecycle, never its
// shards. A job of several computed shards appends exactly a submitted and
// a settled record; the close adds the seq floor and the clean marker.
func TestJournalTrafficPerJob(t *testing.T) {
	const shards = 5
	var execs atomic.Int64
	release := make(chan struct{}, shards)
	for i := 0; i < shards; i++ {
		release <- struct{}{}
	}
	registerCountingExperiment("svc-journal-traffic", shards, &execs, nil, release)
	dir := t.TempDir()

	svc, rec := openRecoverable(t, dir, 2)
	svc.Recover(rec)
	j, err := svc.Submit(JobSpec{Experiment: "svc-journal-traffic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if got := execs.Load(); got != shards {
		t.Fatalf("cold job computed %d shards, want %d", got, shards)
	}
	if got := svc.journal.WALStats().Records; got != 4 {
		t.Fatalf("journal appended %d records, want 4 (submitted, settled, seq, clean)", got)
	}

	log, recs, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var types []byte
	for _, r := range recs {
		types = append(types, r.Type)
	}
	if want := []byte{recSubmitted, recSettled, recSeq, recClean}; !reflect.DeepEqual(types, want) {
		t.Fatalf("journal holds record types %v, want %v", types, want)
	}
}

// waitFor polls cond to true within a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalSubmitFailureRejectsJob: once the WAL is dead, Submit must
// refuse work rather than acknowledge a job that cannot survive a crash.
func TestJournalSubmitFailureRejectsJob(t *testing.T) {
	dir := t.TempDir()
	jn, _, err := OpenJournal(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 1, Journal: jn})
	defer svc.Close()
	jn.abandon()
	if _, err := svc.Submit(JobSpec{Experiment: "table1"}); err == nil {
		t.Fatal("Submit succeeded with a dead journal")
	}
	if js := svc.Jobs(); len(js) != 0 {
		t.Fatalf("rejected submission left %d jobs registered", len(js))
	}
}

// TestRecoveredBoostFlagsBackendQueue: interrupted work re-enters the
// engine queue boosted after a crash but not after a clean suspend — the
// observable difference is just that both complete; the flag plumbing is
// asserted on the job.
func TestRecoveredBoostFlagsBackendQueue(t *testing.T) {
	const shards = 2
	started := make(chan string, shards)
	release := make(chan struct{}, shards)
	registerBlockingExperiment("svc-boost-check", shards, started, release)
	dir := t.TempDir()

	svc1, rec := openRecoverable(t, dir, 1)
	svc1.Recover(rec)
	if _, err := svc1.Submit(JobSpec{Experiment: "svc-boost-check"}); err != nil {
		t.Fatal(err)
	}
	<-started
	svc1.journal.abandon() // crash, not suspend
	svc1.Close()

	svc2, rec2 := openRecoverable(t, dir, 1)
	defer svc2.Close()
	svc2.Recover(rec2)
	j, ok := svc2.Job("job-1")
	if !ok {
		t.Fatal("job not recovered")
	}
	if !j.recovered {
		t.Fatal("crash-recovered job not marked recovered")
	}
	for i := 0; i < shards; i++ {
		release <- struct{}{}
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWALMetricsExported: a journal- and cache-backed service exports the
// WAL, recovery and cache families through its registry.
func TestWALMetricsExported(t *testing.T) {
	dir := t.TempDir()
	svc, rec := openRecoverable(t, dir, 1)
	defer svc.Close()
	svc.Recover(rec)
	if _, err := svc.Submit(JobSpec{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	w := &sliceWriter{&buf}
	if err := svc.Metrics().WritePrometheus(w); err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, family := range []string{
		"cdlab_wal_records_total", "cdlab_wal_bytes_total",
		"cdlab_wal_syncs_total", "cdlab_wal_segments",
		"cdlab_jobs_recovered_total",
		"cdlab_cache_hits_total", "cdlab_cache_mem_bytes",
	} {
		if !containsMetric(out, family) {
			t.Fatalf("metrics export missing %s:\n%s", family, out)
		}
	}
}

type sliceWriter struct{ buf *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

func containsMetric(out, family string) bool {
	return strings.Contains(out, family+" ") || strings.Contains(out, family+"{")
}
