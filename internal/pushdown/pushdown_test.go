package pushdown

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bos/internal/chunkcache"
	"bos/internal/tsfile"
)

// buildFile writes one series of `chunks` chunks of `per` points each, one
// timestamp unit apart, values centered with occasional outliers.
func buildFile(t *testing.T, chunks, per int) (*tsfile.Reader, []tsfile.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	w := tsfile.NewWriter(&buf, tsfile.Options{})
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
		if err := w.Append("s", pts); err != nil {
			t.Fatal(err)
		}
		all = append(all, pts...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := tsfile.OpenReader(file, file.Size(), tsfile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, all
}

// refWindows replicates engine.Downsample's bucketing over raw points.
func refWindows(pts []tsfile.Point, minT, maxT, window int64) []Bucket {
	var out []Bucket
	var cur *Bucket
	for _, p := range pts {
		if p.T < minT || p.T > maxT {
			continue
		}
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

// eval folds every chunk of series "s" through an Evaluator. clearStats
// hands each chunk over with HasStats false, the shape a legacy footer has.
func eval(t *testing.T, r *tsfile.Reader, minT, maxT, window int64, clearStats bool) ([]Bucket, Snapshot) {
	t.Helper()
	var tiers Tiers
	w := NewWindows(minT, window)
	ev := &Evaluator{R: r, Series: "s", MinT: minT, MaxT: maxT, W: w, T: &tiers}
	chunks, err := r.Chunks("s")
	if err != nil {
		t.Fatal(err)
	}
	for ci, m := range chunks {
		m.HasStats = m.HasStats && !clearStats
		if err := ev.EvalChunk(ci, m); err != nil {
			t.Fatal(err)
		}
	}
	return w.Buckets(), tiers.Snapshot()
}

func requireEqual(t *testing.T, got, want []Bucket) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestEvalEquivalence(t *testing.T) {
	r, all := buildFile(t, 8, 512)
	total := int64(len(all))
	rng := rand.New(rand.NewSource(7))
	cases := [][3]int64{
		{0, total - 1, 1024},     // windows aligned with chunk pairs
		{0, total - 1, 512},      // windows == chunks
		{0, total - 1, 100},      // windows inside chunks
		{0, total - 1, 0},        // single aggregate
		{100, 3000, 700},         // partial boundary chunks
		{-500, total + 500, 999}, // range wider than data
		{513, 513, 10},           // single point
		{2000, 1000, 50},         // empty (inverted) range
	}
	for i := 0; i < 10; i++ {
		lo := rng.Int63n(total)
		cases = append(cases, [3]int64{lo, lo + rng.Int63n(total-lo), 1 + rng.Int63n(2000)})
	}
	for _, c := range cases {
		want := refWindows(all, c[0], c[1], c[2])
		for _, clearStats := range []bool{false, true} {
			got, _ := eval(t, r, c[0], c[1], c[2], clearStats)
			requireEqual(t, got, want)
		}
	}
}

func TestEvalTiers(t *testing.T) {
	r, all := buildFile(t, 8, 512)
	total := int64(len(all))
	// Window of two chunks, range clipping half of the first chunk: the
	// clipped chunk must go tier-2, interior chunks tier-1.
	got, snap := eval(t, r, 256, total-1, 1024, false)
	requireEqual(t, got, refWindows(all, 256, total-1, 1024))
	if snap.Stats == 0 {
		t.Fatalf("no stats-tier chunks: %+v", snap)
	}
	if snap.Inlier == 0 {
		t.Fatalf("no inlier-tier chunks: %+v", snap)
	}
	// Windows smaller than chunks force full decodes.
	_, snap = eval(t, r, 0, total-1, 100, false)
	if snap.Full == 0 {
		t.Fatalf("no full-tier chunks: %+v", snap)
	}
}

// TestTiersBySource reads one window and one filter of a 4,096-point chunk
// over each source a chunk handle reads: the file (a miss, with no cache),
// decoded columns the cache holds, and a packed entry. A decoded hit
// decodes nothing and counts cached; a packed hit counts inlier when the
// range skips one of its blocks and full when it decodes every block, as a
// miss does.
func TestTiersBySource(t *testing.T) {
	for _, source := range []string{"miss", "decoded", "packed"} {
		r, all := buildFile(t, 1, 4096)
		var cache *chunkcache.Cache
		if source != "miss" {
			cache = chunkcache.New(1 << 20)
			r.SetCache(cache, 1)
			if _, _, err := r.ChunkColumns("s", 0); err != nil {
				t.Fatal(err)
			}
		}
		if source == "packed" {
			cache.Put(chunkcache.Key{File: 2, Series: "filler"}, "filler", 1<<20-1<<14)
			if st := cache.Stats(); st.Packed != 1 {
				t.Fatalf("cache %+v, want the chunk packed", st)
			}
		}
		want := map[string]Snapshot{
			"miss":    {Inlier: 2, Full: 1},
			"decoded": {Cached: 3},
			"packed":  {Inlier: 2, Full: 1},
		}[source]
		got, window := eval(t, r, 1000, 1500, 100, false)
		requireEqual(t, got, refWindows(all, 1000, 1500, 100))
		_, whole := eval(t, r, 0, 4095, 100, false)
		var tiers Tiers
		f := &Filter{R: r, Series: "s", MinT: 1000, MaxT: 1500, MinV: 1000, MaxV: 1010, T: &tiers}
		m, err := r.Chunks("s")
		if err != nil {
			t.Fatal(err)
		}
		var pts []tsfile.Point
		if err := f.FilterChunk(0, m[0], func(p tsfile.Point) error { pts = append(pts, p); return nil }); err != nil {
			t.Fatal(err)
		}
		var wantPts []tsfile.Point
		for _, p := range all[1000:1501] {
			if p.V >= 1000 && p.V <= 1010 {
				wantPts = append(wantPts, p)
			}
		}
		if !slices.Equal(pts, wantPts) {
			t.Fatalf("%s: filter matched %d points, want %d", source, len(pts), len(wantPts))
		}
		window.Add(whole)
		window.Add(tiers.Snapshot())
		if window != want {
			t.Errorf("%s: tiers %+v, want %+v", source, window, want)
		}
	}
}

func TestFilterEquivalence(t *testing.T) {
	r, all := buildFile(t, 6, 512)
	total := int64(len(all))
	var tiers Tiers
	cases := [][4]int64{
		{0, total - 1, 1000, 1063},        // inlier band only
		{0, total - 1, 1 << 29, 1 << 40},  // outliers only
		{100, 2500, 1010, 1020},           // narrow band, clipped time
		{0, total - 1, -1 << 40, 1 << 40}, // everything
		{0, total - 1, 5, 7},              // nothing (below all chunks)
	}
	for _, c := range cases {
		f := &Filter{R: r, Series: "s", MinT: c[0], MaxT: c[1], MinV: c[2], MaxV: c[3], T: &tiers}
		chunks, err := r.Chunks("s")
		if err != nil {
			t.Fatal(err)
		}
		var got []tsfile.Point
		for ci, m := range chunks {
			if err := f.FilterChunk(ci, m, func(p tsfile.Point) error {
				got = append(got, p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := r.Query("s", c[0], c[1], c[2], c[3])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("case %v: %d points, want %d", c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %v point %d: got %+v want %+v", c, i, got[i], want[i])
			}
		}
	}
	snap := tiers.Snapshot()
	if snap.Stats == 0 || snap.Inlier == 0 {
		t.Fatalf("filter tiers not exercised: %+v", snap)
	}
}

func TestWindowsMerge(t *testing.T) {
	a := NewWindows(0, 100)
	b := NewWindows(0, 100)
	whole := NewWindows(0, 100)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		tm, v := rng.Int63n(1000), rng.Int63n(100)-50
		whole.Add(tm, v)
		if i%2 == 0 {
			a.Add(tm, v)
		} else {
			b.Add(tm, v)
		}
	}
	a.Merge(b)
	requireEqual(t, a.Buckets(), whole.Buckets())
}

// addEach folds the points one by one through Add, the reference AddRun
// must match.
func addEach(minT, window int64, times, vals []int64) []Bucket {
	w := NewWindows(minT, window)
	for i, t := range times {
		w.Add(t, vals[i])
	}
	return w.Buckets()
}

func requireAddRun(t *testing.T, name string, minT, window int64, times, vals []int64) {
	t.Helper()
	w := NewWindows(minT, window)
	w.AddRun(times, vals)
	got, want := w.Buckets(), addEach(minT, window, times, vals)
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d\n got: %+v\nwant: %+v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bucket %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestAddRunMatchesAdd(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	seq := func(from, n, step int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = from + int64(i)*step
		}
		return out
	}
	cases := []struct {
		name         string
		minT, window int64
		times, vals  []int64
	}{
		{"window 1", 0, 1, seq(0, 50, 1), seq(-20, 50, 3)},
		{"window wider than the range", -10, 1 << 40, seq(-10, 100, 7), seq(5, 100, -1)},
		{"window 0", 3, 0, seq(-100, 40, 13), seq(1, 40, 2)},
		{"negative window", 3, -5, seq(-100, 40, 13), seq(1, 40, 2)},
		{"one point per window", 0, 10, seq(0, 30, 10), seq(7, 30, 11)},
		{"times before minT", 100, 7, seq(0, 60, 3), seq(0, 60, -5)},
		{"unsorted", 0, 10, []int64{5, 25, 7, 3, 40, 41, 2, 25, -3, -12}, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"negative values", 0, 4, seq(0, 20, 1), seq(-1000, 20, -37)},
		{"sums that wrap", 0, 8, seq(0, 32, 1), seq(maxI-40, 32, 1)},
		{"sums that wrap below", 0, 8, seq(0, 32, 1), seq(minI, 32, 1)},
		{"offsets that wrap", minI + 5, 1000, []int64{maxI - 3, maxI - 2000, maxI, minI + 5, minI + 1004, minI + 1005, 0, -1, 1}, seq(0, 9, 1)},
		{"offsets that wrap, window 3", minI + 1, 3, []int64{maxI, maxI - 1, maxI - 2, maxI - 3, minI + 1, minI + 3, minI + 4}, seq(-3, 7, 1)},
		{"largest window", minI, maxI, []int64{minI, -2, -1, 0, 1, maxI - 1, maxI}, seq(1, 7, 1)},
		{"largest window, minT 0", 0, maxI, []int64{minI, -2, -1, 0, 1, maxI - 1, maxI}, seq(1, 7, 1)},
		{"window 2^62", minI, 1 << 62, []int64{minI, -1 << 62, -1, 0, 1 << 62, maxI, minI + 1<<62 - 1}, seq(1, 7, 1)},
		{"empty", 0, 10, nil, nil},
	}
	for _, c := range cases {
		requireAddRun(t, c.name, c.minT, c.window, c.times, c.vals)
	}
}

// TestAddRunProperty compares AddRun with point-by-point Add on random
// inputs: anchors and windows from small to the ends of int64, times in
// sorted runs, shuffled or anywhere in int64, and values that wrap sums.
func TestAddRunProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pick := func(small int64) int64 {
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt64 - rng.Int63n(small)
		case 1:
			return math.MinInt64 + rng.Int63n(small)
		case 2:
			return int64(rng.Uint64())
		}
		return rng.Int63n(2*small) - small
	}
	for iter := 0; iter < 2000; iter++ {
		minT := pick(1000)
		var window int64
		switch rng.Intn(5) {
		case 0:
			window = -rng.Int63n(3)
		case 1:
			window = 1 + rng.Int63n(4)
		case 2:
			window = 1 + rng.Int63n(1000)
		case 3:
			window = math.MaxInt64 - rng.Int63n(1000)
		default:
			window = 1 + rng.Int63()
		}
		n := rng.Intn(300)
		times, vals := make([]int64, n), make([]int64, n)
		mode, cur := rng.Intn(4), pick(1000)
		for i := range times {
			switch mode {
			case 0: // increasing, as a chunk's time column is
				cur += 1 + rng.Int63n(window%7+3)
				times[i] = cur
			case 1:
				times[i] = minT + rng.Int63n(4000) - 1000
			case 2:
				times[i] = pick(1000)
			default:
				times[i] = cur + rng.Int63n(100)
			}
			vals[i] = pick(1 << 40)
		}
		if mode > 0 && rng.Intn(2) == 0 {
			slices.Sort(times)
		}
		name := fmt.Sprintf("iteration %d (minT %d, window %d)", iter, minT, window)
		requireAddRun(t, name, minT, window, times, vals)
		requireOffsetsExact(t, name, NewWindows(minT, window), times)
	}
}

// requireOffsetsExact checks that the offset range AddRun keeps a run in is
// t's window exactly: both ends share t's Start, and the offsets just
// outside them, where int64 has them, do not.
func requireOffsetsExact(t *testing.T, name string, w *Windows, times []int64) {
	t.Helper()
	for _, tm := range times {
		lo, hi := w.offsets(tm)
		start := w.Start(tm)
		if d := tm - w.minT; d < lo || d > hi {
			t.Fatalf("%s: t %d: offset %d outside its own range [%d, %d]", name, tm, d, lo, hi)
		}
		if w.Start(w.minT+lo) != start || w.Start(w.minT+hi) != start {
			t.Fatalf("%s: t %d: range [%d, %d] reaches past its window", name, tm, lo, hi)
		}
		if (lo > math.MinInt64 && w.Start(w.minT+lo-1) == start) || (hi < math.MaxInt64 && w.Start(w.minT+hi+1) == start) {
			t.Fatalf("%s: t %d: range [%d, %d] stops short of its window", name, tm, lo, hi)
		}
	}
}
