package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bos/internal/tsfile"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFlushDoesNotBlockInserts pins the tentpole property: while the flush
// pipeline is encoding (stalled via the test hook), inserts and queries
// proceed, and queries see both the in-flight snapshot and the new points.
func TestFlushDoesNotBlockInserts(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 100; i++ {
		if err := e.Insert("s", i, i*2); err != nil {
			t.Fatal(err)
		}
	}

	encoding := make(chan struct{})
	release := make(chan struct{})
	testStageHook = func(stage string) error {
		if stage == "encode" {
			close(encoding)
			<-release
		}
		return nil
	}
	defer func() { testStageHook = nil }()

	flushErr := make(chan error, 1)
	go func() { flushErr <- e.Flush() }()
	<-encoding

	// The snapshot is in flight and the encoder is stalled. Every stripe
	// lock is free: inserts on any series must complete...
	done := make(chan error, 1)
	go func() {
		for i := int64(100); i < 200; i++ {
			if err := e.Insert("s", i, i*2); err != nil {
				done <- err
				return
			}
		}
		done <- e.Insert("other", 1, 42)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert blocked by in-flight flush")
	}

	// ...and queries see the snapshot merged with the fresh memtable.
	got, err := e.Query("s", 0, 299)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("mid-flush query got %d points, want 200", len(got))
	}
	for i, p := range got {
		if p.T != int64(i) || p.V != int64(i)*2 {
			t.Fatalf("point %d = %v", i, p)
		}
	}

	close(release)
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	got, err = e.Query("s", 0, 299)
	if err != nil || len(got) != 200 {
		t.Fatalf("post-flush query got %d points err %v", len(got), err)
	}
	if st := e.Stats(); st.Files != 1 {
		t.Fatalf("files = %d want 1", st.Files)
	}
}

// TestSlowWALSyncDoesNotBlockStripes pins the group-commit property that no
// stripe lock is held across WAL I/O: while the commit leader is stalled in
// its write+sync, writers on other stripes still reach the memtable (their
// points become visible to queries) even though their durability ack waits.
func TestSlowWALSyncDoesNotBlockStripes(t *testing.T) {
	e := openTest(t, Options{SyncWAL: true})
	defer e.Close()

	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	testWALSyncHook = func() {
		entered <- struct{}{}
		<-release
	}
	defer func() { testWALSyncHook = nil }()

	lead := make(chan error, 1)
	go func() { lead <- e.Insert("leader", 1, 1) }()
	<-entered // the leader is now stalled mid-commit, off every stripe lock

	var follow sync.WaitGroup
	followErrs := make([]error, 8)
	for i := range followErrs {
		follow.Add(1)
		go func(i int) {
			defer follow.Done()
			followErrs[i] = e.Insert(fmt.Sprintf("f-%d", i), 1, int64(i))
		}(i)
	}

	// Each follower appends to its stripe before waiting on the group: the
	// points must become queryable while the leader's sync is still stalled.
	for i := range followErrs {
		series := fmt.Sprintf("f-%d", i)
		waitFor(t, series+" visible during slow sync", func() bool {
			pts, err := e.Query(series, 0, 10)
			return err == nil && len(pts) == 1
		})
	}

	close(release)
	if err := <-lead; err != nil {
		t.Fatal(err)
	}
	follow.Wait()
	for i, err := range followErrs {
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.WALRecords != 9 {
		t.Fatalf("WALRecords = %d want 9", st.WALRecords)
	}
	if st.WALGroups < 1 || st.WALGroups > st.WALRecords {
		t.Fatalf("WALGroups = %d (records %d)", st.WALGroups, st.WALRecords)
	}
}

// TestGroupCommitBatchesFsyncs drives many concurrent sync writers and
// checks the commit groups actually batch: fewer groups than records.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	e := openTest(t, Options{SyncWAL: true})
	defer e.Close()
	const writers, batches = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := fmt.Sprintf("w-%d", w)
			for i := 0; i < batches; i++ {
				if err := e.Insert(series, int64(i), int64(i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	st := e.Stats()
	if st.WALRecords != writers*batches {
		t.Fatalf("WALRecords = %d want %d", st.WALRecords, writers*batches)
	}
	if st.WALGroups < 1 || st.WALGroups > st.WALRecords {
		t.Fatalf("WALGroups = %d out of range (records %d)", st.WALGroups, st.WALRecords)
	}
	t.Logf("group commit: %d records in %d groups", st.WALRecords, st.WALGroups)
}

// TestFlushCrashInjection aborts the flush pipeline at each stage and checks
// the engine rolls back to a queryable state, keeps working, and recovers the
// same data after a crash+reopen (the sealed WAL segments cover the rolled
// back points; a file orphaned after the durable rename is adopted).
func TestFlushCrashInjection(t *testing.T) {
	for _, stage := range []string{"snapshot", "encode", "encoded", "renamed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			e := openTest(t, Options{Dir: dir})
			want := map[int64]int64{}
			for i := int64(0); i < 300; i++ {
				if err := e.Insert("s", i, i*5); err != nil {
					t.Fatal(err)
				}
				want[i] = i * 5
			}
			if err := e.InsertFloat("fs", 1, 2.5); err != nil {
				t.Fatal(err)
			}

			boom := errors.New("injected: " + stage)
			testStageHook = func(s string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			if err := e.Flush(); !errors.Is(err, boom) {
				testStageHook = nil
				t.Fatalf("Flush err = %v, want injected failure", err)
			}
			testStageHook = nil

			// Rolled back: everything still queryable, engine still writable.
			got, err := e.Query("s", 0, 999)
			if err != nil || len(got) != 300 {
				t.Fatalf("after rollback: %d points err %v", len(got), err)
			}
			if err := e.Insert("s", 1000, 7); err != nil {
				t.Fatal(err)
			}
			want[1000] = 7

			// Crash without a clean Close; reopen must see every point
			// exactly once (sealed segments replay; after "renamed" the
			// orphaned data file is also loaded and newest-wins dedupes).
			e.closeFiles()
			e.log.close()
			e2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			got, err = e2.Query("s", 0, 9999)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("recovered %d points want %d", len(got), len(want))
			}
			for _, p := range got {
				if want[p.T] != p.V {
					t.Fatalf("recovered %v want v=%d", p, want[p.T])
				}
			}
			fpts, err := e2.QueryFloats("fs", 0, 10)
			if err != nil || len(fpts) != 1 || fpts[0].V != 2.5 {
				t.Fatalf("recovered floats %v err %v", fpts, err)
			}
			// The engine must flush cleanly after recovery.
			if err := e2.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, _ = e2.Query("s", 0, 9999); len(got) != len(want) {
				t.Fatalf("post-recovery flush lost points: %d want %d", len(got), len(want))
			}
		})
	}
}

// TestTombstoneDuringFlushRollback deletes a range while the snapshot is in
// flight, then fails the flush: the rollback must apply the tombstone to the
// restored points instead of resurrecting them.
func TestTombstoneDuringFlushRollback(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 100; i++ {
		if err := e.Insert("s", i, i); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected")
	testStageHook = func(stage string) error {
		if stage != "encode" {
			return nil
		}
		// Runs off every engine lock: a delete must go through mid-flight.
		if err := e.DeleteRange("s", 0, 49); err != nil {
			return fmt.Errorf("mid-flight delete: %w", err)
		}
		return boom
	}
	err := e.Flush()
	testStageHook = nil
	if !errors.Is(err, boom) {
		t.Fatalf("Flush err = %v", err)
	}
	got, err := e.Query("s", 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || got[0].T != 50 {
		t.Fatalf("after rollback+delete: %d points, first %v", len(got), got[0])
	}
}

// TestFlushEncodeDeterminism pins byte-identical output across encode worker
// counts, for both the flush file and a subsequent compaction.
func TestFlushEncodeDeterminism(t *testing.T) {
	files := func(workers int) (flushed, compacted []byte) {
		dir := t.TempDir()
		e := openTest(t, Options{Dir: dir, EncodeWorkers: workers})
		defer e.Close()
		for s := 0; s < 8; s++ {
			series := fmt.Sprintf("series-%02d", s)
			for i := int64(0); i < 200; i++ {
				if err := e.Insert(series, i*3+int64(s), i*int64(s+1)-7*(i%5)); err != nil {
					t.Fatal(err)
				}
			}
			fseries := fmt.Sprintf("float-%02d", s)
			for i := int64(0); i < 100; i++ {
				if err := e.InsertFloat(fseries, i, float64(i)*0.25+float64(s)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		first, err := filepath.Glob(filepath.Join(dir, "data-*.tsf"))
		if err != nil || len(first) != 1 {
			t.Fatalf("after flush: files %v err %v", first, err)
		}
		flushed, err = os.ReadFile(first[0])
		if err != nil {
			t.Fatal(err)
		}
		// Second layer plus a merge: compaction fans out the same way.
		for s := 0; s < 8; s++ {
			series := fmt.Sprintf("series-%02d", s)
			for i := int64(500); i < 600; i++ {
				if err := e.Insert(series, i, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "data-*.tsf"))
		if err != nil || len(names) != 1 {
			t.Fatalf("after compact: files %v err %v", names, err)
		}
		compacted, err = os.ReadFile(names[0])
		if err != nil {
			t.Fatal(err)
		}
		return flushed, compacted
	}
	serialFlush, serialCompact := files(1)
	parallelFlush, parallelCompact := files(8)
	if !bytes.Equal(serialFlush, parallelFlush) {
		t.Error("flush output differs between 1 and 8 encode workers")
	}
	if !bytes.Equal(serialCompact, parallelCompact) {
		t.Error("compaction output differs between 1 and 8 encode workers")
	}
}

// TestConcurrentFlushInsertQueryCompact is a -race stress: every write-path
// phase runs at once against one engine.
func TestConcurrentFlushInsertQueryCompact(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 500, SyncWAL: true})
	defer e.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	report := func(err error) {
		if err != nil && !errors.Is(err, ErrClosed) {
			select {
			case errCh <- err:
			default:
			}
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := fmt.Sprintf("stress-%d", w)
			pts := make([]tsfile.Point, 20)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range pts {
					pts[j] = tsfile.Point{T: i*20 + int64(j), V: i}
				}
				report(e.InsertBatch(series, pts))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			report(e.InsertFloat("stress-f", i, float64(i)))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := e.Query(fmt.Sprintf("stress-%d", r), 0, 1<<40)
				report(err)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			report(e.Flush())
			report(e.Compact())
			report(e.DeleteRange("stress-0", 0, 10))
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Everything must still be intact and queryable.
	if _, err := e.Query("stress-1", 0, 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
