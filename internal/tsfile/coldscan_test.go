package tsfile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bos/internal/chunkcache"
	"bos/internal/dataset"
	"bos/internal/packers"
)

// scanFile writes, with the given packer, an integer series, a scaled float
// series and a raw float series, each as two chunks of 3,000 points (three
// value blocks each), and returns the file and the points written.
func scanFile(t testing.TB, packer string) ([]byte, []Point, []FloatPoint, []FloatPoint) {
	t.Helper()
	p, err := packers.ByName(packer)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{Packer: p})
	var ints []Point
	var scaled, raw []FloatPoint
	start := int64(0)
	for c := 0; c < 2; c++ {
		pts := makePoints(rng, start, 3000)
		for i := 5; i < len(pts); i += 41 {
			pts[i].V -= 1 << 33 // lower outliers beside makePoints' upper jumps
		}
		start = pts[len(pts)-1].T
		fs := makeFloatPoints(rng, 0, 3000, 2)
		rs := makeFloatPoints(rng, 0, 3000, 1)
		for i := range fs {
			fs[i].T, rs[i].T = pts[i].T, pts[i].T
		}
		rs[17].V = math.Pi // not a decimal: the chunk stores raw bits
		for _, err := range []error{w.Append("int", pts), w.AppendFloats("scaled", fs), w.AppendFloats("raw", rs)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		ints, scaled, raw = append(ints, pts...), append(scaled, fs...), append(raw, rs...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ints, scaled, raw
}

// fullCache returns a cache of maxBytes already holding maxBytes of another
// file's chunk, so it has no room: a partial read is declined, a whole read
// that fits evicts the filler.
func fullCache(maxBytes int64) *chunkcache.Cache {
	c := chunkcache.New(maxBytes)
	filler := make([]int64, maxBytes/16)
	chunkcache.Put(c, 999, "filler", 0, filler, filler)
	return c
}

// scanRanges names the time ranges the differential scans read of points
// pts: empty (between two points, and inverted), inside one value block,
// across blocks, across the two chunks, the whole series, and past both
// ends.
func scanRanges[V int64 | float64](pts []Sample[V]) []struct {
	name       string
	minT, maxT int64
} {
	t := func(i int) int64 { return pts[i].T }
	return []struct {
		name       string
		minT, maxT int64
	}{
		{"empty", t(100) + 1, t(101) - 1},
		{"inverted", t(900), t(800)},
		{"inside a block", t(1100), t(1900)},
		{"across blocks", t(900), t(2100)},
		{"across chunks", t(2500), t(3600)},
		{"whole", t(0), t(len(pts) - 1)},
		{"past both ends", t(0) - 1000, t(len(pts)-1) + 1000},
	}
}

// checkScan reads [minT, maxT] of series with Iter, a run at a time as a
// merge does, and with the buffering scan (Query or QueryFloats), and
// requires exactly the points of want in range from both.
func checkScan[V int64 | float64](t *testing.T, r *Reader, series string, want []Sample[V], minT, maxT int64) {
	t.Helper()
	var exp []Sample[V]
	for _, p := range want {
		if p.T >= minT && p.T <= maxT {
			exp = append(exp, p)
		}
	}
	it, err := Iter[V](r, series, minT, maxT)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Sample[V], 0, len(exp)+1)
	page := make([]Sample[V], 0, 700)
	for {
		var p Sample[V]
		var ok bool
		page, p, ok = it.Run(page[:0], math.MaxInt64)
		got = append(got, page...)
		if !ok {
			break
		}
		got = append(got, p)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	it.Release()
	if !equalSamples(got, exp) {
		t.Fatalf("Iter: %d points, want %d", len(got), len(exp))
	}
	var q []Sample[V]
	switch any(exp).(type) {
	case []Point:
		pts, err := r.Query(series, minT, maxT, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		q = any(pts).([]Sample[V])
	default:
		pts, err := r.QueryFloats(series, minT, maxT, math.Inf(-1), math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		q = any(pts).([]Sample[V])
	}
	if !equalSamples(q, exp) {
		t.Fatalf("Query: %d points, want %d", len(q), len(exp))
	}
}

// TestScanPathsMatchWrittenPoints reads every registry packer's integer,
// scaled and raw chunks over empty, in-block, cross-block, cross-chunk,
// whole and overhanging ranges, through no cache, a full cache (partial
// reads are declined and decode into pooled buffers), a cache with room
// (every miss is admitted) and a cache smaller than one chunk (nothing is
// admitted). Every read returns exactly the written points in range, and
// reading every range twice covers hits as well as misses.
func TestScanPathsMatchWrittenPoints(t *testing.T) {
	for _, name := range packers.Names() {
		data, ints, scaled, raw := scanFile(t, name)
		for _, cache := range []struct {
			name string
			new  func() *chunkcache.Cache
		}{
			{"no cache", func() *chunkcache.Cache { return nil }},
			{"full", func() *chunkcache.Cache { return fullCache(1 << 20) }},
			{"with room", func() *chunkcache.Cache { return chunkcache.New(1 << 24) }},
			{"smaller than a chunk", func() *chunkcache.Cache { return chunkcache.New(1 << 10) }},
		} {
			t.Run(fmt.Sprintf("%s/%s", name, cache.name), func(t *testing.T) {
				r, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{})
				if err != nil {
					t.Fatal(err)
				}
				c := cache.new()
				r.SetCache(c, 1)
				for pass := 0; pass < 2; pass++ {
					for _, rg := range scanRanges(ints) {
						checkScan(t, r, "int", ints, rg.minT, rg.maxT)
						checkScan(t, r, "scaled", scaled, rg.minT, rg.maxT)
						checkScan(t, r, "raw", raw, rg.minT, rg.maxT)
					}
				}
				if st := c.Stats(); cache.name == "smaller than a chunk" && (st.Entries != 0 || st.Declined == 0) {
					t.Fatalf("a cache smaller than every chunk: %+v, want nothing cached and every miss declined", st)
				}
			})
		}
	}
}

// TestIteratorReleaseMidChunk: an iterator released partway through a
// pooled chunk yields nothing more, a second Release does nothing, and the
// reads that take its buffers next return the right points.
func TestIteratorReleaseMidChunk(t *testing.T) {
	data, ints, _, _ := scanFile(t, "bosb")
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := Iter[int64](r, "int", ints[1000].T, ints[4000].T)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && it.Next(); i++ {
	}
	it.Release()
	it.Release()
	if it.Next() {
		t.Fatal("a released iterator yielded a point")
	}
	if _, _, ok := it.Run(make([]Point, 0, 8), math.MaxInt64); ok {
		t.Fatal("a released iterator ran")
	}
	for i := 0; i < 3; i++ {
		checkScan(t, r, "int", ints, ints[500+i].T, ints[5000-i].T)
	}
}

// coldScan returns a scan of positions [lo, lo+n) of the one chunk r holds,
// read a run at a time into page as the engine's merge reads it, and
// checks its length.
func coldScan(tb testing.TB, r *Reader, lo, n int, page []Point) func() {
	return func() {
		it, err := Iter[int64](r, "s", int64(lo), int64(lo+n-1))
		if err != nil {
			tb.Fatal(err)
		}
		got := 0
		for ok := true; ok; {
			page, _, ok = it.Run(page[:0], math.MaxInt64)
			got += len(page)
			if ok {
				got++
			}
		}
		if it.Err() != nil || got != n {
			tb.Fatalf("scan: %d points, err %v; want %d", got, it.Err(), n)
		}
	}
}

// TestColdScanAllocatesNoColumn: a 4,096-point scan of a 16,384-point chunk
// through a full cache is declined by the cache, evicts nothing, and once
// the read buffers are pooled allocates under 1 KiB (the iterator).
func TestColdScanAllocatesNoColumn(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is put back under -race")
	}
	const n, lo, span, runs = 16384, 6000, 4096, 50
	r := coldChunk(t, dataset.All()[0].Ints(n))
	cache := fullCache(1 << 20)
	r.SetCache(cache, 1)
	scan := coldScan(t, r, lo, span, make([]Point, 0, 4096))
	scan() // fills the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	if perScan := (after.TotalAlloc - before.TotalAlloc) / runs; perScan >= 1024 {
		t.Errorf("%d bytes allocated per scan, want under 1 KiB", perScan)
	}
	if st := cache.Stats(); st.Evictions != 0 || st.Declined != runs+1 || st.Entries != 1 {
		t.Errorf("cache after %d scans: %+v, want no eviction, every miss declined and the filler kept", runs+1, st)
	}
}

// BenchmarkColdScan times a 4,096-point scan of one 16,384-point BOS-B
// chunk through a full cache, agg_cold's raw scan shape: each iteration
// misses, is declined, opens the chunk into pooled buffers, decodes the
// time column and only the value blocks the range overlaps, and runs the
// points into a page.
func BenchmarkColdScan(b *testing.B) {
	const n, lo, span = 16384, 6000, 4096
	r := coldChunk(b, dataset.All()[0].Ints(n))
	r.SetCache(fullCache(1<<20), 1)
	scan := coldScan(b, r, lo, span, make([]Point, 0, 4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*span), "ns/point")
}
