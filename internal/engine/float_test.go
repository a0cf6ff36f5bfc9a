package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"bos/internal/tsfile"
)

func makeFloats(rng *rand.Rand, n int) []tsfile.FloatPoint {
	pts := make([]tsfile.FloatPoint, n)
	v := 20.0
	for i := range pts {
		v += rng.NormFloat64() * 0.3
		pts[i] = tsfile.FloatPoint{T: int64(i), V: math.Round(v*100) / 100}
	}
	return pts
}

func TestFloatInsertQueryAcrossFlush(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 500})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	want := makeFloats(rng, 2000)
	if err := e.InsertFloatBatch("f", want); err != nil {
		t.Fatal(err)
	}
	got, err := e.QueryFloats("f", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("point %d: %v vs %v", i, got[i], want[i])
		}
	}
	if e.Stats().Files == 0 {
		t.Error("expected flushes")
	}
}

func TestFloatWALRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := makeFloats(rng, 300)
	e.InsertFloatBatch("f", want)
	e.closeFiles() // crash before flush
	e.log.close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.QueryFloats("f", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d points want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("point %d not bit-exact", i)
		}
	}
}

func TestFloatKindConflicts(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	defer func() { e.Close() }()
	e.Insert("ints", 1, 1)
	if err := e.InsertFloat("ints", 2, 2.5); !errors.Is(err, ErrSeriesKind) {
		t.Errorf("float into int series: %v", err)
	}
	e.InsertFloat("floats", 1, 1.5)
	if err := e.Insert("floats", 2, 2); !errors.Is(err, ErrSeriesKind) {
		t.Errorf("int into float series: %v", err)
	}

	// A series keeps its kind once its points have left the memtable:
	// flushed into a data file, or reloaded from one after a reopen.
	reject := func(stage string) {
		t.Helper()
		if err := e.Insert("floats", 2, 2); !errors.Is(err, ErrSeriesKind) {
			t.Errorf("%s: int into float series: %v", stage, err)
		}
		if err := e.InsertBatch("floats", []tsfile.Point{{T: 3, V: 3}}); !errors.Is(err, ErrSeriesKind) {
			t.Errorf("%s: int batch into float series: %v", stage, err)
		}
		if err := e.InsertFloat("ints", 2, 2.5); !errors.Is(err, ErrSeriesKind) {
			t.Errorf("%s: float into int series: %v", stage, err)
		}
		if err := e.InsertFloatBatch("ints", []tsfile.FloatPoint{{T: 3, V: 3.5}}); !errors.Is(err, ErrSeriesKind) {
			t.Errorf("%s: float batch into int series: %v", stage, err)
		}
		// The rejected writes left both series readable and compactable.
		if got, err := e.QueryFloats("floats", 0, 10); err != nil || len(got) != 1 {
			t.Errorf("%s: QueryFloats = %v, %v", stage, got, err)
		}
		if got, err := e.Query("ints", 0, 10); err != nil || len(got) != 1 {
			t.Errorf("%s: Query = %v, %v", stage, got, err)
		}
		if _, err := e.CompactWith(nil); err != nil {
			t.Errorf("%s: compact: %v", stage, err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	reject("flushed")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = openTest(t, Options{Dir: dir})
	reject("reopened")
}

func TestFloatDeleteAndCompact(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	e.InsertFloatBatch("f", makeFloats(rng, 1000))
	e.Flush()
	e.Insert("i", 1, 1)
	e.Flush()
	if err := e.DeleteRange("f", 100, 899); err != nil {
		t.Fatal(err)
	}
	got, err := e.QueryFloats("f", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d points want 200 after delete", len(got))
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err = e.QueryFloats("f", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("got %d points want 200 after compaction", len(got))
	}
	ipts, err := e.Query("i", 0, 10)
	if err != nil || len(ipts) != 1 {
		t.Fatalf("int series lost in mixed compaction: %v err %v", ipts, err)
	}
}

func TestFloatOverwriteNewestWins(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	e.InsertFloat("f", 5, 1.5)
	e.Flush()
	e.InsertFloat("f", 5, 2.5)
	got, err := e.QueryFloats("f", 0, 10)
	if err != nil || len(got) != 1 || got[0].V != 2.5 {
		t.Fatalf("got %v err %v", got, err)
	}
}
