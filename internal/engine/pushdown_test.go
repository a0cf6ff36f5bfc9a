package engine

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bos/internal/tsfile"
)

// refBuckets replicates the pre-pushdown Downsample: bucket an already-merged
// scan result. pts must be time-sorted and within [minT, maxT].
func refBuckets(pts []tsfile.Point, minT, window int64) []Bucket {
	var out []Bucket
	var cur *Bucket
	for _, p := range pts {
		start := minT
		if window > 0 {
			start = minT + (p.T-minT)/window*window
		}
		if cur == nil || cur.Start != start {
			out = append(out, Bucket{Start: start, Min: p.V, Max: p.V})
			cur = &out[len(out)-1]
		}
		cur.Count++
		if p.V < cur.Min {
			cur.Min = p.V
		}
		if p.V > cur.Max {
			cur.Max = p.V
		}
		cur.Sum += p.V
	}
	return out
}

func requireBuckets(t *testing.T, what string, got, want []Bucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d\n got: %+v\nwant: %+v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bucket %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// checkPushdown asserts WindowAgg, Aggregate and QueryFilterEach agree with
// the merged scan on one series/range/window/predicate combination.
func checkPushdown(t *testing.T, e *Engine, series string, minT, maxT, window, minV, maxV int64) {
	t.Helper()
	ref, err := e.Query(series, minT, maxT)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.WindowAgg(series, minT, maxT, window)
	if err != nil {
		t.Fatal(err)
	}
	requireBuckets(t, "WindowAgg", got, refBuckets(ref, minT, window))

	agg, err := e.Aggregate(series, minT, maxT)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg := Bucket{Start: minT}
	if len(ref) > 0 {
		wantAgg = refBuckets(ref, minT, 0)[0]
	}
	if agg != wantAgg {
		t.Fatalf("Aggregate = %+v, want %+v", agg, wantAgg)
	}

	var fgot []tsfile.Point
	err = e.QueryFilterEach(series, minT, maxT, minV, maxV, func(p tsfile.Point) error {
		fgot = append(fgot, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fwant []tsfile.Point
	for _, p := range ref {
		if p.V >= minV && p.V <= maxV {
			fwant = append(fwant, p)
		}
	}
	if len(fgot) != len(fwant) {
		t.Fatalf("QueryFilterEach [%d,%d]: %d points, want %d", minV, maxV, len(fgot), len(fwant))
	}
	for i := range fgot {
		if fgot[i] != fwant[i] {
			t.Fatalf("QueryFilterEach point %d = %+v, want %+v", i, fgot[i], fwant[i])
		}
	}
}

// fillChunks inserts `chunks` flushed batches of `per` sequential points each
// (one chunk per flush), values in a small band with sparse large outliers.
func fillChunks(t *testing.T, e *Engine, series string, chunks, per int, rng *rand.Rand) []tsfile.Point {
	t.Helper()
	var all []tsfile.Point
	ts := int64(0)
	for c := 0; c < chunks; c++ {
		pts := make([]tsfile.Point, per)
		for i := range pts {
			v := int64(1000 + rng.Intn(64))
			if rng.Float64() < 0.02 {
				v += 1 << 30
			}
			pts[i] = tsfile.Point{T: ts, V: v}
			ts++
		}
		if err := e.InsertBatch(series, pts); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		all = append(all, pts...)
	}
	return all
}

func TestWindowAggTiersAndEquivalence(t *testing.T) {
	// Cache disabled: a chunk-cache hit is (correctly) counted as a full
	// decode, and the reference Query would warm every chunk.
	e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30, CacheBytes: -1})
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	all := fillChunks(t, e, "s", 6, 1000, rng)
	total := int64(len(all))

	// Disjoint time-ordered files: every chunk is exclusive. Chunk-aligned
	// windows answer interior chunks from stats; the range clip makes the
	// first chunk partial (inlier tier).
	checkPushdown(t, e, "s", 500, total-1, 1000, 1000, 1063)
	st := e.Stats().Pushdown
	if st.Stats == 0 {
		t.Fatalf("no stats-tier hits: %+v", st)
	}
	if st.Inlier == 0 {
		t.Fatalf("no inlier-tier hits: %+v", st)
	}

	// Sub-chunk windows and narrow value predicates still agree.
	checkPushdown(t, e, "s", 0, total-1, 300, 1010, 1020)
	checkPushdown(t, e, "s", 0, total-1, 0, -1<<40, 1<<40)

	// Buffered points over a chunk force that chunk back onto the merged
	// scan; results stay identical.
	if err := e.InsertBatch("s", []tsfile.Point{{T: 1500, V: -7}, {T: total + 10, V: 8}}); err != nil {
		t.Fatal(err)
	}
	checkPushdown(t, e, "s", 0, total+20, 1000, -10, 2000)

	// A tombstone over another chunk does the same.
	if err := e.DeleteRange("s", 2100, 2200); err != nil {
		t.Fatal(err)
	}
	checkPushdown(t, e, "s", 0, total+20, 1000, -10, 2000)
	checkPushdown(t, e, "s", 2000, 2300, 50, 1000, 1063)
}

func TestWindowAggOverlappingFiles(t *testing.T) {
	e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30})
	defer e.Close()
	// Two files covering the same range with different values: newest must
	// win everywhere, which only the merged scan can decide.
	flushSeries(t, e, "s", tsfile.Point{T: 1, V: 10}, tsfile.Point{T: 2, V: 20}, tsfile.Point{T: 3, V: 30})
	flushSeries(t, e, "s", tsfile.Point{T: 2, V: 99})
	checkPushdown(t, e, "s", 0, 10, 2, 0, 100)
	agg, err := e.Aggregate("s", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 3 || agg.Sum != 10+99+30 || agg.Min != 10 || agg.Max != 99 {
		t.Fatalf("overlap aggregate = %+v", agg)
	}
}

func TestWindowAggFloatSeries(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30})
		if err := e.InsertFloatBatch("f", []tsfile.FloatPoint{{T: 1, V: 1.5}, {T: 2, V: 2.5}}); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertBatch("i", []tsfile.Point{{T: 1, V: 7}}); err != nil {
			t.Fatal(err)
		}
		if flushed {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Reads of the other kind fail identically on every path, whether
		// the points are buffered or on disk.
		reads := map[string]error{}
		_, reads["Query"] = e.Query("f", 0, 10)
		reads["QueryEach"] = e.QueryEach("f", 0, 10, func(tsfile.Point) error { return nil })
		_, reads["WindowAgg"] = e.WindowAgg("f", 0, 10, 5)
		_, reads["Aggregate"] = e.Aggregate("f", 0, 10)
		reads["QueryFilterEach"] = e.QueryFilterEach("f", 0, 10, -1, 1, func(tsfile.Point) error { return nil })
		_, reads["QueryFloats"] = e.QueryFloats("i", 0, 10)
		for name, err := range reads {
			if !errors.Is(err, tsfile.ErrKindMismatch) {
				t.Errorf("flushed=%v: %s of the other kind: %v", flushed, name, err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyFileStats checks every integer chunk's footer statistics against its
// decoded columns — the invariant flush, compaction and repacking must keep.
func verifyFileStats(t *testing.T, e *Engine) {
	t.Helper()
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	for _, df := range e.files {
		for _, name := range df.reader.Series() {
			chunks, err := df.reader.Chunks(name)
			if err != nil {
				t.Fatal(err)
			}
			for ci, m := range chunks {
				if m.Kind != 0 {
					continue
				}
				if !m.HasStats {
					t.Fatalf("%s: %s chunk %d has no stats", df.path, name, ci)
				}
				times, vals, err := df.reader.ChunkColumns(name, ci)
				if err != nil {
					t.Fatal(err)
				}
				var sum int64
				minV, maxV := vals[0], vals[0]
				for _, v := range vals {
					sum += v
					if v < minV {
						minV = v
					}
					if v > maxV {
						maxV = v
					}
				}
				if m.Count != len(times) || m.Sum != sum || m.MinV != minV || m.MaxV != maxV {
					t.Fatalf("%s: %s chunk %d stats %+v, decoded count=%d sum=%d min=%d max=%d",
						df.path, name, ci, m, len(times), sum, minV, maxV)
				}
			}
		}
	}
}

func TestCompactionRewritesChunkStats(t *testing.T) {
	e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30})
	defer e.Close()
	rng := rand.New(rand.NewSource(21))
	fillChunks(t, e, "s", 3, 800, rng)
	// Overwrites and a delete change the merged content, so the compacted
	// chunk's stats differ from any input chunk's.
	flushSeries(t, e, "s", tsfile.Point{T: 100, V: -5}, tsfile.Point{T: 101, V: 1 << 40})
	if err := e.DeleteRange("s", 700, 900); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	verifyFileStats(t, e)
	checkPushdown(t, e, "s", 0, 2399, 400, 0, 2000)
}

func TestRepackRewritesChunkStats(t *testing.T) {
	e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30})
	defer e.Close()
	rng := rand.New(rand.NewSource(22))
	fillChunks(t, e, "s", 3, 500, rng)
	st, err := e.CompactWith(func(SeriesData) string { return "bp" })
	if err != nil {
		t.Fatal(err)
	}
	if st.SeriesPackers["s"] != "bp" {
		t.Fatalf("repack did not choose bp: %+v", st.SeriesPackers)
	}
	verifyFileStats(t, e)
	// The bitpack packer has no partial kernels; pushdown must still agree
	// through the full-decode fallback.
	checkPushdown(t, e, "s", 100, 1400, 250, 1000, 1063)
}

func TestCrashReopenStatsConsistent(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Options{Dir: dir})
	rng := rand.New(rand.NewSource(23))
	fillChunks(t, e, "s", 3, 600, rng)

	// Crash mid-compact: the merged file is renamed into place but its open
	// fails, as after a process kill between rename and splice.
	boom := errors.New("injected open failure")
	outPath := filepath.Join(dir, "data-000002.tsf")
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
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatalf("merged file missing after crash: %v", err)
	}

	// Reopen picks the merged file up; its stats must match its data.
	e2 := openTest(t, Options{Dir: dir})
	defer e2.Close()
	verifyFileStats(t, e2)
	checkPushdown(t, e2, "s", 0, 1799, 600, 1000, 1063)
}

// FuzzPushdownEquivalence is the differential fuzz: for arbitrary data
// layouts (disjoint files, overlapping files, memtable leftovers, a tombstone)
// and arbitrary ranges, windows and value predicates, the compressed-domain
// executor must produce exactly the merged scan's answer, and float series
// must fail identically on both paths.
func FuzzPushdownEquivalence(f *testing.F) {
	f.Add(int64(1), int64(0), int64(4000), int64(256), int64(990), int64(1100), int64(500), int64(700))
	f.Add(int64(2), int64(100), int64(900), int64(1), int64(-1<<35), int64(1<<35), int64(0), int64(0))
	f.Add(int64(3), int64(3000), int64(200), int64(1000), int64(1000), int64(1063), int64(2900), int64(3300))
	f.Add(int64(4), int64(-50), int64(5000), int64(4096), int64(1<<29), int64(1<<40), int64(4000), int64(4500))
	f.Add(int64(5), int64(1500), int64(1500), int64(7), int64(5), int64(7), int64(1499), int64(1501))
	f.Fuzz(func(t *testing.T, seed, qlo, qhi, window, vlo, vhi, dlo, dhi int64) {
		const span = int64(4200)
		clamp := func(x int64) int64 {
			x %= span
			if x < 0 {
				x += span
			}
			return x
		}
		if qlo > qhi {
			qlo, qhi = qhi, qlo
		}
		if vlo > vhi {
			vlo, vhi = vhi, vlo
		}
		// Keep the window anchor arithmetic far from int64 overflow.
		if qlo < -span || qlo > 2*span {
			qlo = clamp(qlo)
		}
		if qhi < qlo || qhi > 2*span {
			qhi = qlo + clamp(qhi)
		}
		window = clamp(window)

		rng := rand.New(rand.NewSource(seed))
		e := openTest(t, Options{DisableWAL: true, FlushThreshold: 1 << 30})
		defer e.Close()
		insert := func(lo, n int64) {
			pts := make([]tsfile.Point, 0, n)
			for i := int64(0); i < n; i++ {
				v := int64(1000 + rng.Intn(64))
				switch rng.Intn(40) {
				case 0:
					v += 1 << 30
				case 1:
					v = -v
				}
				pts = append(pts, tsfile.Point{T: lo + i, V: v})
			}
			if err := e.InsertBatch("s", pts); err != nil {
				t.Fatal(err)
			}
		}
		flush := func() {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Two disjoint time-ordered files, one file at a random (usually
		// overlapping) position, one float chunk, a tombstone, and a
		// memtable remainder.
		insert(0, 1400)
		flush()
		insert(1400, 1400)
		flush()
		insert(rng.Int63n(span), 400)
		if err := e.InsertFloatBatch("f", []tsfile.FloatPoint{{T: 10, V: 0.5}, {T: 20, V: -3.25}}); err != nil {
			t.Fatal(err)
		}
		flush()
		if dlo > dhi {
			dlo, dhi = dhi, dlo
		}
		if dhi-dlo < span && dlo >= -span && dhi <= 2*span {
			if err := e.DeleteRange("s", dlo, dhi); err != nil {
				t.Fatal(err)
			}
		}
		insert(rng.Int63n(span), 200)

		checkPushdown(t, e, "s", qlo, qhi, window, vlo, vhi)
		checkPushdown(t, e, "s", qlo, qhi, 0, vlo, vhi)

		// Float series: both executors must agree on failure.
		_, qerr := e.Query("f", qlo, qhi)
		_, werr := e.WindowAgg("f", qlo, qhi, window)
		if (qerr == nil) != (werr == nil) {
			t.Fatalf("float divergence: Query err=%v, WindowAgg err=%v", qerr, werr)
		}
	})
}
