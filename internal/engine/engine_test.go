package engine

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bos/internal/bitpack"
	"bos/internal/packers"
	"bos/internal/tsfile"
)

func openTest(t *testing.T, opt Options) *Engine {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	e, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInsertQueryAcrossFlush(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 100})
	defer e.Close()
	want := map[int64]int64{}
	for i := int64(0); i < 1000; i++ {
		v := i * 3
		if err := e.Insert("s", i, v); err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	// Several automatic flushes have happened; data spans files + memtable.
	got, err := e.Query("s", 0, 999)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("got %d points want 1000", len(got))
	}
	for i, p := range got {
		if p.T != int64(i) || p.V != want[p.T] {
			t.Fatalf("point %d = %v", i, p)
		}
	}
	st := e.Stats()
	if st.Files == 0 {
		t.Error("expected automatic flushes to create files")
	}
}

func TestOutOfOrderAndOverwrite(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	e.Insert("s", 10, 1)
	e.Insert("s", 5, 2)
	e.Insert("s", 10, 3) // overwrite in memtable
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Insert("s", 5, 4) // overwrite from a newer layer
	got, err := e.Query("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0] != (tsfile.Point{T: 5, V: 4}) || got[1] != (tsfile.Point{T: 10, V: 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	rng := rand.New(rand.NewSource(1))
	var want []tsfile.Point
	for i := int64(0); i < 5000; i++ {
		p := tsfile.Point{T: i, V: rng.Int63n(1 << 30)}
		want = append(want, p)
		e.Insert("root.d.m", p.T, p.V)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openTest(t, Options{Dir: dir})
	defer e2.Close()
	got, err := e2.Query("root.d.m", 0, 4999)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestCompact(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 64})
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	want := map[string]map[int64]int64{}
	for _, s := range []string{"a", "b", "c"} {
		want[s] = map[int64]int64{}
		for i := 0; i < 700; i++ {
			tt := rng.Int63n(2000) // duplicates across flushes on purpose
			v := rng.Int63n(1000)
			e.Insert(s, tt, v)
			want[s][tt] = v
		}
	}
	before := e.Stats()
	if before.Files < 2 {
		t.Fatalf("want multiple files before compaction, got %d", before.Files)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Files != 1 {
		t.Fatalf("want 1 file after compaction, got %d", after.Files)
	}
	for s, m := range want {
		got, err := e.Query(s, 0, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(m) {
			t.Fatalf("%s: %d points want %d", s, len(got), len(m))
		}
		for _, p := range got {
			if m[p.T] != p.V {
				t.Fatalf("%s: t=%d got %d want %d", s, p.T, p.V, m[p.T])
			}
		}
	}
}

func TestSeriesListing(t *testing.T) {
	e := openTest(t, Options{})
	defer e.Close()
	e.Insert("b", 1, 1)
	e.Insert("a", 1, 1)
	e.Flush()
	e.Insert("c", 1, 1)
	got := e.Series()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("series = %v", got)
	}
}

func TestClosedErrors(t *testing.T) {
	e := openTest(t, Options{})
	e.Insert("s", 1, 1)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", 2, 2); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if _, err := e.Query("s", 0, 10); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentInsertQuery(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 500})
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			series := string(rune('a' + g))
			for i := int64(0); i < 2000; i++ {
				if err := e.Insert(series, i, i*int64(g+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			e.Query("a", 0, 1<<40)
			e.Stats()
		}
	}()
	wg.Wait()
	for g := 0; g < 4; g++ {
		series := string(rune('a' + g))
		got, err := e.Query(series, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2000 {
			t.Fatalf("%s: %d points want 2000", series, len(got))
		}
		for i, p := range got {
			if p.V != int64(i)*int64(g+1) {
				t.Fatalf("%s point %d = %v", series, i, p)
			}
		}
	}
}

func TestBOSFilesSmallerThanBP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]tsfile.Point, 30000)
	v := int64(1 << 20)
	for i := range pts {
		if rng.Float64() < 0.01 {
			v += rng.Int63n(1<<28) - 1<<27
		} else {
			v += rng.Int63n(9) - 4
		}
		pts[i] = tsfile.Point{T: int64(i), V: v}
	}
	size := func(opt tsfile.Options) int64 {
		e := openTest(t, Options{File: opt})
		defer e.Close()
		e.InsertBatch("s", pts)
		e.Flush()
		return e.Stats().DiskBytes
	}
	bos := size(tsfile.Options{})
	bp := size(tsfile.Options{Packer: bitpack.Packer{}})
	if bos >= bp {
		t.Errorf("BOS engine %d bytes >= BP engine %d", bos, bp)
	}
}

func BenchmarkInsertFlushQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]tsfile.Point, 10000)
	v := int64(0)
	for i := range pts {
		v += rng.Int63n(17) - 8
		pts[i] = tsfile.Point{T: int64(i), V: v}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		e, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		e.InsertBatch("s", pts)
		e.Flush()
		if _, err := e.Query("s", 2000, 8000); err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// TestReopenWithOtherPacker writes a data directory with one packer and
// reopens it with the default: each file's footer names the packer its
// chunks were written with, so every point reads back.
func TestReopenWithOtherPacker(t *testing.T) {
	pfor, err := packers.ByName("pfor")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir, File: tsfile.Options{Packer: pfor}})
	rng := rand.New(rand.NewSource(7))
	ints := make([]tsfile.Point, 3000)
	floats := make([]tsfile.FloatPoint, 3000)
	for i := range ints {
		ints[i] = tsfile.Point{T: int64(i) * 10, V: rng.Int63n(1<<20) - 1<<19}
		floats[i] = tsfile.FloatPoint{T: int64(i) * 10, V: float64(rng.Intn(100000)) / 100}
	}
	if err := e.InsertBatch("i", ints); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertFloatBatch("f", floats); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = openTest(t, Options{Dir: dir})
	defer e.Close()
	if st := e.Stats(); st.Files != 1 || st.MemPoints != 0 {
		t.Fatalf("reopened with %d files and %d buffered points, want every point in one file", st.Files, st.MemPoints)
	}
	gotInts, err := e.Query("i", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotInts, ints) {
		t.Fatalf("Query read %d int points, want %d equal ones", len(gotInts), len(ints))
	}
	gotFloats, err := e.QueryFloats("f", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotFloats, floats) {
		t.Fatalf("QueryFloats read %d float points, want %d equal ones", len(gotFloats), len(floats))
	}
}
