package engine

import (
	"fmt"
	"math"
	"testing"

	"bos/internal/tsfile"
)

func TestDeleteRangeMemtable(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 10; i++ {
		e.Insert("s", i, i*10)
	}
	if err := e.DeleteRange("s", 3, 6); err != nil {
		t.Fatal(err)
	}
	got, err := e.Query("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("got %v", got)
	}
	for _, p := range got {
		if p.T >= 3 && p.T <= 6 {
			t.Fatalf("deleted point survived: %v", p)
		}
	}
}

func TestDeleteRangeMasksFiles(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 100; i++ {
		e.Insert("s", i, i)
	}
	e.Flush() // data now on disk
	if err := e.DeleteRange("s", 20, 79); err != nil {
		t.Fatal(err)
	}
	got, err := e.Query("s", 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d points want 40", len(got))
	}
}

func TestInsertAfterDeleteSurvivesFlush(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	e.Insert("s", 5, 100)
	e.Flush()
	e.DeleteRange("s", 0, 10)
	e.Insert("s", 5, 200) // newer than the delete
	e.Flush()             // the new point lands in a file with seq >= tombstone seq
	got, err := e.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (tsfile.Point{T: 5, V: 200}) {
		t.Fatalf("got %v", got)
	}
}

func TestDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		e.Insert("s", i, i)
	}
	e.Flush()
	e.DeleteRange("s", 10, 39)
	// Crash without compaction: the tombstone lives only in the WAL.
	e.closeFiles()
	e.log.close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d points want 20 after restart", len(got))
	}
}

func TestCompactionReclaimsDeletes(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	for i := int64(0); i < 2000; i++ {
		e.Insert("s", i, i)
	}
	e.Flush()
	e.Insert("s2", 1, 1) // second file so Compact has work
	e.Flush()
	before := e.Stats().DiskBytes
	if err := e.DeleteRange("s", 0, 1499); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.DiskBytes >= before {
		t.Errorf("compaction did not reclaim: %d -> %d bytes", before, after.DiskBytes)
	}
	got, err := e.Query("s", 0, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("got %d points want 500", len(got))
	}
	// Tombstones are gone: a full re-query after another flush cycle
	// still sees the surviving points.
	e.Insert("s", 10, 777) // re-insert into a previously deleted slot
	got, _ = e.Query("s", 10, 10)
	if len(got) != 1 || got[0].V != 777 {
		t.Fatalf("post-compaction insert lost: %v", got)
	}
}

func TestDeleteRangeValidation(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	if err := e.DeleteRange("s", 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestDeleteFlushPreservesTombstones(t *testing.T) {
	// Flushing resets the WAL; pending tombstones must be rewritten so a
	// crash after the flush still honors the delete.
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		e.Insert("s", i, i)
	}
	e.Flush()
	e.DeleteRange("s", 0, 9)
	e.Insert("s", 100, 100)
	e.Flush() // WAL reset happens here; tombstone must be re-logged
	e.closeFiles()
	e.log.close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("deleted points resurrected after flush+restart: %v", got)
	}
	got, _ = e2.Query("s", 100, 100)
	if len(got) != 1 {
		t.Fatalf("post-delete insert lost: %v", got)
	}
}

// crash drops e without Close, leaving its directory as a crash would.
func crash(e *Engine) {
	e.closeFiles()
	e.log.close()
}

// TestDeleteWhileBufferedSurvivesReopen deletes buffered int and float
// points and restarts, cleanly and by a crash. Replay must apply the delete
// to the points logged before it, as DeleteRange applied it to the
// memtable: no point, series or kind comes back.
func TestDeleteWhileBufferedSurvivesReopen(t *testing.T) {
	for _, crashed := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crashed), func(t *testing.T) {
			dir := t.TempDir()
			e := openTest(t, Options{Dir: dir})
			if err := e.Insert("mem", 1, 1); err != nil {
				t.Fatal(err)
			}
			if err := e.InsertFloat("memf", 1, 1.5); err != nil {
				t.Fatal(err)
			}
			for _, s := range []string{"mem", "memf"} {
				if err := e.DeleteRange(s, math.MinInt64, math.MaxInt64); err != nil {
					t.Fatal(err)
				}
			}
			if crashed {
				crash(e)
			} else if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = openTest(t, Options{Dir: dir})
			defer e.Close()
			if got, err := e.Query("mem", math.MinInt64, math.MaxInt64); err != nil || len(got) != 0 {
				t.Fatalf("Query(mem) = %v, %v; want no points", got, err)
			}
			if got, err := e.QueryFloats("memf", math.MinInt64, math.MaxInt64); err != nil || len(got) != 0 {
				t.Fatalf("QueryFloats(memf) = %v, %v; want no points", got, err)
			}
			if names := e.Series(); len(names) != 0 {
				t.Fatalf("Series() = %v, want none", names)
			}
			for _, s := range []string{"mem", "memf"} {
				if kind := e.SeriesKind(s); kind != "" {
					t.Fatalf("SeriesKind(%s) = %q, want \"\"", s, kind)
				}
			}
		})
	}
}

// TestCarriedTombstoneKeepsLaterInsert deletes a range and inserts into it
// while a flush is encoding. The flush carries the pending tombstone into
// the fresh log after that insert; replay must not apply the copy to it.
func TestCarriedTombstoneKeepsLaterInsert(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	if err := e.Insert("s", 1, 10); err != nil {
		t.Fatal(err)
	}
	encoding, release := make(chan struct{}), make(chan struct{})
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
	if err := e.DeleteRange("s", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", 5, 50); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	testStageHook = nil

	crash(e)
	e = openTest(t, Options{Dir: dir})
	defer e.Close()
	got, err := e.Query("s", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (tsfile.Point{T: 5, V: 50}) {
		t.Fatalf("after crash-reopen: got %v, want [{5 50}]", got)
	}
}

// TestCarriedTombstoneNotDuplicated deletes a range while a flush is
// encoding, closes, then reopens, inserts and closes three times. The flush
// carries a copy of the delete into the log that already holds the delete's
// own record; replay must keep one tombstone, not one per copy, or every
// later flush carries both.
func TestCarriedTombstoneNotDuplicated(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	if err := e.Insert("s", 1, 10); err != nil {
		t.Fatal(err)
	}
	encoding, release := make(chan struct{}), make(chan struct{})
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
	if err := e.DeleteRange("s", 0, 10); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	testStageHook = nil
	if len(e.tombs) != 1 {
		t.Fatalf("live engine holds %d tombstones, want 1: %+v", len(e.tombs), e.tombs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		e = openTest(t, Options{Dir: dir})
		if len(e.tombs) != 1 {
			t.Fatalf("reopen %d: %d tombstones, want 1: %+v", round, len(e.tombs), e.tombs)
		}
		if err := e.Insert("s", 100+int64(round), int64(round)); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
