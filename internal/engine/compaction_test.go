package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bos/internal/tsfile"
)

// flushSeries inserts pts into series and flushes them into their own file.
func flushSeries(t *testing.T, e *Engine, series string, pts ...tsfile.Point) {
	t.Helper()
	if err := e.InsertBatch(series, pts); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func queryAll(t *testing.T, e *Engine, series string) []tsfile.Point {
	t.Helper()
	pts, err := e.Query(series, 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestCompactOpenFailureDoesNotClobber is the regression test for the old
// Compact bug: when opening the merged file failed after the rename, the
// sequence counter had not advanced, so the next flush reused the compacted
// file's name and silently overwrote it. The phased compaction gives the
// output an already-allocated sequence, so no later flush can collide.
func TestCompactOpenFailureDoesNotClobber(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	flushSeries(t, e, "a", tsfile.Point{T: 1, V: 10})
	flushSeries(t, e, "b", tsfile.Point{T: 2, V: 20})

	boom := errors.New("injected open failure")
	outPath := filepath.Join(dir, "data-000001.tsf")
	testOpenDataFileErr = func(path string) error {
		if path == outPath {
			return boom
		}
		return nil
	}
	defer func() { testOpenDataFileErr = nil }()
	if _, err := e.CompactWith(nil); !errors.Is(err, boom) {
		t.Fatalf("CompactWith error = %v, want injected failure", err)
	}
	testOpenDataFileErr = nil

	// The engine must stay fully usable: old readers still serve, and a new
	// flush must NOT reuse the merged file's sequence.
	flushSeries(t, e, "c", tsfile.Point{T: 3, V: 30})
	for series, want := range map[string]int64{"a": 10, "b": 20, "c": 30} {
		pts := queryAll(t, e, series)
		if len(pts) != 1 || pts[0].V != want {
			t.Fatalf("%s after failed commit: %v", series, pts)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "data-000002.tsf")); err != nil {
		t.Fatalf("post-failure flush did not get a fresh sequence: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// After reopen the renamed merged file is picked up; nothing is lost.
	e2 := openTest(t, Options{Dir: dir})
	defer e2.Close()
	for series, want := range map[string]int64{"a": 10, "b": 20, "c": 30} {
		pts := queryAll(t, e2, series)
		if len(pts) != 1 || pts[0].V != want {
			t.Fatalf("%s after reopen: %v", series, pts)
		}
	}
}

// TestCompactCrashBeforeCommit kills a compaction between writing the merge
// output and the atomic rename: the orphaned .tmp must be swept on reopen and
// the engine must serve exactly the pre-compaction data.
func TestCompactCrashBeforeCommit(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	flushSeries(t, e, "s", tsfile.Point{T: 1, V: 1}, tsfile.Point{T: 2, V: 2})
	flushSeries(t, e, "s", tsfile.Point{T: 2, V: 22}, tsfile.Point{T: 3, V: 3})

	c, err := e.SnapshotCompaction([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("expected one merge tmp file, found %v", tmps)
	}
	// Crash: no Commit, no Abort — just drop the process state.
	e.closeFiles()
	e.log.close()

	e2 := openTest(t, Options{Dir: dir})
	defer e2.Close()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("orphaned tmp files survived reopen: %v", tmps)
	}
	pts := queryAll(t, e2, "s")
	want := []tsfile.Point{{T: 1, V: 1}, {T: 2, V: 22}, {T: 3, V: 3}}
	if len(pts) != len(want) {
		t.Fatalf("got %v want %v", pts, want)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d: got %v want %v", i, pts[i], want[i])
		}
	}
}

// TestCompactPartialRun merges a contiguous run in the middle of the file
// list and verifies newest-wins ordering is preserved both live and after a
// restart (the merged output reuses the run's newest sequence, keeping
// file-name order equal to freshness order).
func TestCompactPartialRun(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	// Four files, all overwriting t=100; freshest file wins.
	for seq := 0; seq < 4; seq++ {
		flushSeries(t, e, "s",
			tsfile.Point{T: 100, V: int64(seq)},
			tsfile.Point{T: int64(10 + seq), V: int64(seq)})
	}
	c, err := e.SnapshotCompaction([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Files != 3 || st.Compactions != 1 || st.CompactedFiles != 2 {
		t.Fatalf("stats after partial run: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "data-000001.tsf")); !os.IsNotExist(err) {
		t.Fatalf("replaced input data-000001.tsf still present (err=%v)", err)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		pts := queryAll(t, e, "s")
		// t=100 must come from file 3 (freshest); the per-file markers at
		// t=10..13 must all survive.
		byT := map[int64]int64{}
		for _, p := range pts {
			byT[p.T] = p.V
		}
		if byT[100] != 3 {
			t.Fatalf("%s: t=100 = %d, want 3 (newest file)", when, byT[100])
		}
		for seq := int64(0); seq < 4; seq++ {
			if byT[10+seq] != seq {
				t.Fatalf("%s: marker %d = %d, want %d", when, 10+seq, byT[10+seq], seq)
			}
		}
	}
	check(e, "live")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTest(t, Options{Dir: dir})
	defer e2.Close()
	check(e2, "reopened")
}

// TestCompactBypassesChunkCache checks that a compaction reads its inputs
// past the chunk cache: merging files with nothing cached leaves the cache's
// counters and entries as they were, and the cached chunks of a file outside
// the run stay cached.
func TestCompactBypassesChunkCache(t *testing.T) {
	e := openTest(t, Options{Dir: t.TempDir()})
	defer e.Close()
	for seq := 0; seq < 3; seq++ {
		flushSeries(t, e, "s", tsfile.Point{T: 100, V: int64(seq)}, tsfile.Point{T: int64(10 + seq), V: 1})
	}
	flushSeries(t, e, "outside", tsfile.Point{T: 1, V: 1}, tsfile.Point{T: 2, V: 2})
	queryAll(t, e, "outside") // caches the one chunk of file 3
	before := e.Stats().Cache
	if before.Entries != 1 {
		t.Fatalf("cache before compaction: %+v, want one entry", before)
	}
	c, err := e.SnapshotCompaction([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().Cache; after != before {
		t.Fatalf("compaction touched the cache:\nbefore %+v\nafter  %+v", before, after)
	}
	queryAll(t, e, "outside")
	if after := e.Stats().Cache; after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("file outside the run lost its cached chunk: before %+v, after %+v", before, after)
	}
	if pts := queryAll(t, e, "s"); len(pts) != 4 || pts[3] != (tsfile.Point{T: 100, V: 2}) {
		t.Fatalf("merged series: %v", pts)
	}
}

// TestCompactRunValidation rejects runs that would break the freshness
// invariant or collide with an in-flight compaction.
func TestCompactRunValidation(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for seq := 0; seq < 3; seq++ {
		flushSeries(t, e, "s", tsfile.Point{T: int64(seq), V: 1})
	}
	if _, err := e.SnapshotCompaction([]int{0, 2}); err == nil {
		t.Error("non-adjacent run accepted")
	}
	if _, err := e.SnapshotCompaction([]int{7}); err == nil {
		t.Error("unknown sequence accepted")
	}
	if _, err := e.SnapshotCompaction(nil); err == nil {
		t.Error("empty run accepted")
	}
	c, err := e.SnapshotCompaction([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SnapshotCompaction([]int{1, 2}); !errors.Is(err, ErrCompacting) {
		t.Errorf("second snapshot while compacting: %v", err)
	}
	if err := c.Commit(); err == nil {
		t.Error("commit before merge accepted")
	}
	c.Abort()
	// After Abort the engine accepts a new compaction again.
	c2, err := e.SnapshotCompaction([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	c2.Abort()
}

// TestCompactConcurrentFlushAndDelete runs the mutation paths compaction must
// tolerate mid-build: a flush appends a new file and a range delete lands
// while the merge is running. The committed output must not resurrect the
// deleted points (the tombstone outlives the compaction because its sequence
// is above the output's) and the flushed file must survive the splice.
func TestCompactConcurrentFlushAndDelete(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	flushSeries(t, e, "s", tsfile.Point{T: 1, V: 1}, tsfile.Point{T: 2, V: 2})
	flushSeries(t, e, "s", tsfile.Point{T: 3, V: 3}, tsfile.Point{T: 4, V: 4})

	c, err := e.SnapshotCompaction([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	// Mid-build mutations, after the merge already ran.
	flushSeries(t, e, "s", tsfile.Point{T: 5, V: 5})
	if err := e.DeleteRange("s", 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	pts := queryAll(t, e, "s")
	want := []tsfile.Point{{T: 1, V: 1}, {T: 4, V: 4}, {T: 5, V: 5}}
	if fmt.Sprint(pts) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", pts, want)
	}
	// A second, full compaction physically applies the late tombstone.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	pts = queryAll(t, e, "s")
	if fmt.Sprint(pts) != fmt.Sprint(want) {
		t.Fatalf("after full compact: got %v want %v", pts, want)
	}
}

// TestCompactCommitAfterClose verifies a compaction racing engine shutdown
// fails cleanly instead of writing into a closed engine.
func TestCompactCommitAfterClose(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	flushSeries(t, e, "s", tsfile.Point{T: 1, V: 1})
	flushSeries(t, e, "s", tsfile.Point{T: 2, V: 2})
	c, err := e.SnapshotCompaction([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("commit after close leaked tmp files: %v", tmps)
	}
}

// TestCompactAdaptiveStats exercises the per-series packer choice: the
// chooser's picks must be encoded into the output (visible in the chunk
// footers), reported in CompactStats and accumulated into engine stats.
func TestCompactAdaptiveStats(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := 0; i < 2; i++ {
		base := int64(i * 100)
		flushSeries(t, e, "ints", tsfile.Point{T: base + 1, V: 7}, tsfile.Point{T: base + 2, V: 9})
		if err := e.InsertFloatBatch("floats", []tsfile.FloatPoint{{T: base + 1, V: 1.5}}); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	choose := func(sd SeriesData) string {
		if sd.Name == "ints" {
			if len(sd.Points) != 4 {
				t.Errorf("chooser saw %d int points, want 4", len(sd.Points))
			}
			return "bp"
		}
		if len(sd.Floats) != 2 {
			t.Errorf("chooser saw %d float points, want 2", len(sd.Floats))
		}
		return "pfor"
	}
	stats, err := e.CompactWith(choose)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Series != 2 || stats.Points != 6 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.SeriesPackers["ints"] != "bp" || stats.SeriesPackers["floats"] != "pfor" {
		t.Fatalf("packer choices: %v", stats.SeriesPackers)
	}
	if stats.BytesBefore <= 0 || stats.BytesAfter <= 0 {
		t.Fatalf("byte accounting: %+v", stats)
	}
	st := e.Stats()
	if st.Compactions != 1 || st.CompactedBytesIn != stats.BytesBefore || st.CompactedBytesOut != stats.BytesAfter {
		t.Fatalf("engine counters: %+v", st)
	}
	// The chosen packers are recorded per chunk in the merged file.
	e.structMu.RLock()
	chunks, err := e.files[0].reader.Chunks("ints")
	e.structMu.RUnlock()
	if err != nil || len(chunks) == 0 || chunks[0].Packer != "bp" {
		t.Fatalf("merged chunk packer: %v err %v", chunks, err)
	}
	pts := queryAll(t, e, "ints")
	if len(pts) != 4 {
		t.Fatalf("ints after adaptive compact: %v", pts)
	}
	fpts, err := e.QueryFloats("floats", 0, 1<<40)
	if err != nil || len(fpts) != 2 {
		t.Fatalf("floats after adaptive compact: %v err %v", fpts, err)
	}
}

// TestCompactNonBlocking proves the acceptance property of the phased design:
// inserts and queries complete while a compaction merge is in flight. The
// chooser blocks the merge until the test has pushed traffic through the
// engine; under the old whole-lock Compact this deadlocks.
func TestCompactNonBlocking(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	flushSeries(t, e, "s", tsfile.Point{T: 1, V: 1})
	flushSeries(t, e, "s", tsfile.Point{T: 2, V: 2})

	merging := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	choose := func(SeriesData) string {
		once.Do(func() { close(merging) })
		<-release
		return ""
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.CompactWith(choose)
		done <- err
	}()

	select {
	case <-merging:
	case <-time.After(5 * time.Second):
		t.Fatal("merge never started")
	}
	// The merge is now parked inside Merge (no engine lock). Foreground
	// operations must complete promptly.
	var ops atomic.Int64
	fg := make(chan error, 1)
	go func() {
		for i := int64(0); i < 50; i++ {
			if err := e.Insert("live", 100+i, i); err != nil {
				fg <- err
				return
			}
			if _, err := e.Query("live", 0, 1<<40); err != nil {
				fg <- err
				return
			}
			ops.Add(2)
		}
		fg <- nil
	}()
	select {
	case err := <-fg:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("foreground traffic blocked during merge (completed %d ops)", ops.Load())
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	pts := queryAll(t, e, "live")
	if len(pts) != 50 {
		t.Fatalf("live series lost writes during compaction: %d points", len(pts))
	}
}
