package engine

import (
	"math"
	"math/rand"
	"testing"

	"bos/internal/tsfile"
)

// collectEach drains QueryEach into a slice.
func collectEach(t *testing.T, e *Engine, series string, minT, maxT int64) []tsfile.Point {
	t.Helper()
	var out []tsfile.Point
	if err := e.QueryEach(series, minT, maxT, func(p tsfile.Point) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatalf("QueryEach: %v", err)
	}
	return out
}

func samePoints(t *testing.T, got, want []tsfile.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestQueryEachMatchesQuery drives a randomized workload of inserts,
// overwrites, flushes and deletes, checking that the streaming scan and the
// buffering Query both return exactly what the last-write-wins model holds.
func TestQueryEachMatchesQuery(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	const series = "root.d1.s1"
	m := model{}
	s := m.series(series, false)
	for round := 0; round < 6; round++ {
		pts := make([]tsfile.Point, 0, 500)
		for i := 0; i < 500; i++ {
			p := tsfile.Point{
				T: int64(rng.Intn(2000)), // heavy duplicate timestamps
				V: rng.Int63n(1 << 30),
			}
			pts = append(pts, p)
			s.ints[p.T] = p.V
		}
		if err := e.InsertBatch(series, pts); err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			if err := e.Flush(); err != nil { // spread the data over files
				t.Fatal(err)
			}
		}
		if round == 3 {
			if err := e.DeleteRange(series, 300, 600); err != nil {
				t.Fatal(err)
			}
			m.deleteRange(series, 300, 600)
		}
	}
	for _, r := range [][2]int64{{0, 2000}, {100, 150}, {599, 601}, {1999, 5000}, {50, 49}} {
		want := m.ints(series, r[0], r[1])
		got, err := e.Query(series, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, got, want)
		samePoints(t, collectEach(t, e, series, r[0], r[1]), want)
	}
	// Unknown series streams nothing.
	if got := collectEach(t, e, "no.such.series", 0, 100); len(got) != 0 {
		t.Fatalf("unknown series returned %d points", len(got))
	}
}

// TestQueryEachSmallPages forces the pagination path by scanning more points
// than one page holds, and checks both reads against the inserted points.
func TestQueryEachSmallPages(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 3000})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const series = "s"
	n := scanPageSize*2 + 123
	pts := make([]tsfile.Point, n)
	for i := range pts {
		pts[i] = tsfile.Point{T: int64(i), V: int64(i * 3)}
	}
	if err := e.InsertBatch(series, pts); err != nil {
		t.Fatal(err)
	}
	samePoints(t, collectEach(t, e, series, 0, int64(n)), pts)
	got, err := e.Query(series, 0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, pts)
}

func TestSeriesStatsAndKind(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InsertBatch("ints", []tsfile.Point{{T: 1, V: 10}, {T: 2, V: 20}}); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertFloat("floats", 5, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("ints", 3, 30); err != nil { // memtable on top of disk
		t.Fatal(err)
	}
	stats := e.SeriesStats()
	if len(stats) != 2 {
		t.Fatalf("got %d series stats, want 2", len(stats))
	}
	f, i := stats[0], stats[1]
	if f.Name != "floats" || f.Kind != "float" || f.DiskPoints != 1 {
		t.Fatalf("float stat: %+v", f)
	}
	if i.Name != "ints" || i.Kind != "int" || i.DiskPoints != 2 || i.MemPoints != 1 {
		t.Fatalf("int stat: %+v", i)
	}
	if i.MinT != 1 || i.MaxT != 3 {
		t.Fatalf("int stat time range: %+v", i)
	}
	if i.DiskBytes <= 0 || i.Chunks == 0 {
		t.Fatalf("int stat disk footprint: %+v", i)
	}
	if k := e.SeriesKind("ints"); k != "int" {
		t.Fatalf("SeriesKind(ints) = %q", k)
	}
	if k := e.SeriesKind("floats"); k != "float" {
		t.Fatalf("SeriesKind(floats) = %q", k)
	}
	if k := e.SeriesKind("missing"); k != "" {
		t.Fatalf("SeriesKind(missing) = %q", k)
	}
}

// TestSeriesKindOfVanishedSeries deletes every point of two series, one
// buffered and one on disk. SeriesKind answers a series' kind while a data
// file still holds it, even masked, and "" once nothing holds it: after the
// buffered points are pruned, and after the last file is compacted away,
// also across a reopen.
func TestSeriesKindOfVanishedSeries(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	kinds := func(when string, want map[string]string) {
		t.Helper()
		for name, k := range want {
			if got := e.SeriesKind(name); got != k {
				t.Fatalf("%s: SeriesKind(%s) = %q, want %q", when, name, got, k)
			}
		}
	}
	// Two files, so the compaction below has something to merge.
	if err := e.InsertFloatBatch("disk", []tsfile.FloatPoint{{T: 1, V: 0.5}, {T: 2, V: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("kept", 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("mem", 1, 1); err != nil {
		t.Fatal(err)
	}
	kinds("written", map[string]string{"disk": "float", "kept": "int", "mem": "int"})
	for _, name := range []string{"disk", "mem"} {
		if err := e.DeleteRange(name, math.MinInt64, math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
	kinds("deleted", map[string]string{"disk": "float", "kept": "int", "mem": ""})
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	kinds("compacted", map[string]string{"disk": "", "kept": "int", "mem": ""})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = Open(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	kinds("reopened", map[string]string{"disk": "", "kept": "int"})
}

// TestScanOpensOnlyOverlappingFiles flushes a series into F files with
// disjoint time ranges and reads a range inside one of them. The read must
// allocate the same for F = 8 and F = 64: a scan opens cursors, and primes
// them, only on the files whose footer index shows the series overlapping its
// range. It holds for the paged integer scan and for the float read alike.
func TestScanOpensOnlyOverlappingFiles(t *testing.T) {
	const perFile = 100
	allocs := func(files int, float bool) float64 {
		e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 1 << 30, DisableWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for f := 0; f < files; f++ {
			var err error
			if float {
				pts := make([]tsfile.FloatPoint, perFile)
				for i := range pts {
					pts[i] = tsfile.FloatPoint{T: int64(f*perFile + i), V: float64(i) / 4}
				}
				err = e.InsertFloatBatch("s", pts)
			} else {
				pts := make([]tsfile.Point, perFile)
				for i := range pts {
					pts[i] = tsfile.Point{T: int64(f*perFile + i), V: int64(i * i)}
				}
				err = e.InsertBatch("s", pts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := int64(3*perFile+10), int64(3*perFile+60)
		return testing.AllocsPerRun(20, func() {
			n := 0
			if float {
				pts, err := e.QueryFloats("s", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				n = len(pts)
			} else if err := e.QueryEach("s", lo, hi, func(tsfile.Point) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
			if n != int(hi-lo+1) {
				t.Fatalf("read %d points, want %d", n, hi-lo+1)
			}
		})
	}
	for _, float := range []bool{false, true} {
		if few, many := allocs(8, float), allocs(64, float); few != many {
			t.Errorf("float %v: a read inside one file allocates %v times over 8 files, %v over 64", float, few, many)
		}
	}
}
