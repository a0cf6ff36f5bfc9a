package pushdown

import (
	"bytes"
	"math/rand"
	"testing"

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
