package engine

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bos/internal/tsfile"
)

// TestWALRecoversUnflushedInserts simulates a crash: insert without flushing,
// abandon the engine (no Close), reopen — the data must come back.
func TestWALRecoversUnflushedInserts(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		if err := e.Insert("s", i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: drop the engine without Flush/Close. The WAL file carries
	// everything.
	e.closeFiles()
	e.log.close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 499)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("recovered %d points want 500", len(got))
	}
	for i, p := range got {
		if p.T != int64(i) || p.V != int64(i)*7 {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

// TestWALTruncatedAfterFlush: a flush must reset the log so replay does not
// double-apply.
func TestWALTruncatedAfterFlush(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert("s", 1, 10)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("wal is %d bytes after flush, want 0", info.Size())
	}
	e.Insert("s", 2, 20) // only this should be in the log now
	series, err := sortedWALSeries(dir)
	if err != nil || len(series) != 1 {
		t.Fatalf("wal series = %v err %v", series, err)
	}
	e.closeFiles()
	e.log.close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].V != 10 || got[1].V != 20 {
		t.Fatalf("got %v", got)
	}
}

// TestWALTornTailDropped: a partially written final record (torn write) must
// be dropped while every preceding record survives.
func TestWALTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert("s", 1, 100)
	e.Insert("s", 2, 200)
	e.closeFiles()
	e.log.close()

	// Tear the last few bytes off the log.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (tsfile.Point{T: 1, V: 100}) {
		t.Fatalf("got %v", got)
	}
}

// TestWALCorruptRecordStopsReplay: a bit flip in a record's payload must stop
// replay at that record without error.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert("s", 1, 100)
	e.Insert("s", 2, 200)
	e.Insert("s", 3, 300)
	e.closeFiles()
	e.log.close()

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // lands in record 2 of 3
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= 3 {
		t.Fatalf("got %d points, want the prefix before the corruption", len(got))
	}
}

// TestDisableWAL: with the log off, unflushed inserts are lost on crash —
// and no wal file exists.
func TestDisableWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Insert("s", 1, 100)
	e.closeFiles() // crash without flush

	if _, err := os.Stat(filepath.Join(dir, walName)); !os.IsNotExist(err) {
		t.Fatalf("wal file exists with DisableWAL: %v", err)
	}
	e2, err := Open(Options{Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v without a WAL", got)
	}
}

// TestWALSyncOption exercises the fsync path.
func TestWALSyncOption(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := int64(0); i < 50; i++ {
		if err := e.Insert("s", i, i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Query("s", 0, 100)
	if err != nil || len(got) != 50 {
		t.Fatalf("got %d err %v", len(got), err)
	}
}

// TestWALReplayOversizedCount feeds Open a short log holding one CRC-valid
// insert or float record whose point count is far beyond what its payload
// can hold. The count must not size an allocation: the record is malformed,
// so replay stops there, as after a torn tail, and the engine opens empty.
func TestWALReplayOversizedCount(t *testing.T) {
	for _, kind := range []byte{walInsert, walFloat} {
		for _, count := range []uint64{1 << 36, 1 << 62} {
			payload := []byte{kind, 1, 's'}
			payload = binary.AppendUvarint(payload, count)
			payload = append(payload, 2, 4) // one point: t=1, v=2 or float bits 4
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, walName), frameRecord(nil, payload), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("kind %d count %d: %v", kind, count, err)
			}
			if st := e.Stats(); st.MemPoints != 0 {
				t.Errorf("kind %d count %d: replayed %d points from a malformed record", kind, count, st.MemPoints)
			}
			e.Close()
		}
	}
}

// FuzzWALReplay checks the two halves of the replay contract. Any bytes given
// as a log file must replay or stop, never panic. And records built with
// appendPoints and appendTombstonePayload, framed with frameRecord, must
// replay to exactly the points and tombstones they were built from, a
// carried tombstone marked as carried.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, "s", int64(-3), int64(9), uint64(2))
	f.Add(frameRecord(nil, []byte{walInsert, 1, 's', 1, 2, 4}), "root.a", int64(0), int64(1<<40), uint64(7))
	f.Add([]byte{6, 0, 0, 0, 0, walFloat, 1, 's', 0x80, 0x80, 0x80, 0x80, 0x10}, "", int64(-1<<63), int64(1<<63-1), uint64(1<<63))
	f.Add(frameRecord(nil, appendTombstonePayload(nil, walCarried, tombstone{series: "c", minT: -5, maxT: 5, seq: 3})), "c", int64(-5), int64(5), uint64(3))
	f.Fuzz(func(t *testing.T, raw []byte, series string, minT, maxT int64, seq uint64) {
		dir := t.TempDir()
		log := filepath.Join(dir, walName)
		if err := os.WriteFile(log, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := replayWAL(dir, func(string, []tsfile.Point) {}, func(tombstone, bool) {}, func(string, []tsfile.FloatPoint) {}); err != nil {
			t.Fatal(err)
		}

		// raw doubles as the points: each 16 bytes give a timestamp and a
		// value, the value read as float bits too.
		var ints []tsfile.Point
		var floats []tsfile.FloatPoint
		for b := raw; len(b) >= 16; b = b[16:] {
			tt, v := int64(binary.LittleEndian.Uint64(b)), binary.LittleEndian.Uint64(b[8:])
			ints = append(ints, tsfile.Point{T: tt, V: int64(v)})
			floats = append(floats, tsfile.FloatPoint{T: tt, V: math.Float64frombits(v)})
		}
		ts := tombstone{series: series, minT: minT, maxT: maxT, seq: int(seq)}
		var buf []byte
		buf = frameRecord(buf, appendPoints(nil, walInsert, series, ints, binary.AppendVarint))
		buf = frameRecord(buf, appendTombstonePayload(nil, walTombstone, ts))
		buf = frameRecord(buf, appendTombstonePayload(nil, walCarried, ts))
		buf = frameRecord(buf, appendPoints(nil, walFloat, series, floats, appendFloatBits))
		if err := os.WriteFile(log, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		var gotInts [][]tsfile.Point
		var gotTombs []tombstone
		var gotCarried []bool
		var gotFloats [][]tsfile.FloatPoint
		err := replayWAL(dir,
			func(s string, pts []tsfile.Point) {
				if s != series {
					t.Errorf("insert series %q, want %q", s, series)
				}
				gotInts = append(gotInts, pts)
			},
			func(got tombstone, carried bool) {
				gotTombs = append(gotTombs, got)
				gotCarried = append(gotCarried, carried)
			},
			func(s string, pts []tsfile.FloatPoint) {
				if s != series {
					t.Errorf("float series %q, want %q", s, series)
				}
				gotFloats = append(gotFloats, pts)
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(gotInts) != 1 || len(gotTombs) != 2 || len(gotFloats) != 1 {
			t.Fatalf("replayed %d insert, %d tombstone and %d float records, want 1, 2 and 1", len(gotInts), len(gotTombs), len(gotFloats))
		}
		for i, got := range gotTombs {
			if got != ts || gotCarried[i] != (i == 1) {
				t.Errorf("tombstone record %d = %+v carried %v, want %+v carried %v", i, got, gotCarried[i], ts, i == 1)
			}
		}
		if len(gotInts[0]) != len(ints) || len(gotFloats[0]) != len(floats) {
			t.Fatalf("replayed %d int and %d float points, want %d", len(gotInts[0]), len(gotFloats[0]), len(ints))
		}
		for i, p := range ints {
			if gotInts[0][i] != p {
				t.Fatalf("int point %d: %v, want %v", i, gotInts[0][i], p)
			}
			if g := gotFloats[0][i]; g.T != p.T || math.Float64bits(g.V) != math.Float64bits(floats[i].V) {
				t.Fatalf("float point %d: %v, want %v", i, g, floats[i])
			}
		}
	})
}
