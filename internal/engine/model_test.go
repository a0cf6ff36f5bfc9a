package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bos/internal/tsfile"
)

// The model is an oracle independent of the engine's read path: a plain map
// per series holding the last write for each timestamp, minus deletes. Every
// read API is checked against it, so the merge code can change without the
// tests comparing it with itself.

type modelSeries struct {
	float bool
	ints  map[int64]int64
	flts  map[int64]float64
}

type model map[string]*modelSeries

func (m model) series(name string, float bool) *modelSeries {
	s, ok := m[name]
	if !ok {
		s = &modelSeries{float: float, ints: map[int64]int64{}, flts: map[int64]float64{}}
		m[name] = s
	}
	return s
}

// ints returns the model's points of an integer series in [minT, maxT].
func (m model) ints(name string, minT, maxT int64) []tsfile.Point {
	out := []tsfile.Point{}
	if s, ok := m[name]; ok {
		for t, v := range s.ints {
			if t >= minT && t <= maxT {
				out = append(out, tsfile.Point{T: t, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// floats returns the model's points of a float series in [minT, maxT].
func (m model) floats(name string, minT, maxT int64) []tsfile.FloatPoint {
	out := []tsfile.FloatPoint{}
	if s, ok := m[name]; ok {
		for t, v := range s.flts {
			if t >= minT && t <= maxT {
				out = append(out, tsfile.FloatPoint{T: t, V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func (m model) deleteRange(name string, minT, maxT int64) {
	s, ok := m[name]
	if !ok {
		return
	}
	for t := range s.ints {
		if t >= minT && t <= maxT {
			delete(s.ints, t)
		}
	}
	for t := range s.flts {
		if t >= minT && t <= maxT {
			delete(s.flts, t)
		}
	}
}

// checkIntsAgainstModel compares Query, a multi-page QueryEach and a
// whole-range WindowAgg of an integer series with the model.
func checkIntsAgainstModel(t *testing.T, e *Engine, m model, name string, minT, maxT int64) {
	t.Helper()
	want := m.ints(name, minT, maxT)
	got, err := e.Query(name, minT, maxT)
	if err != nil {
		t.Fatalf("Query %s [%d, %d]: %v", name, minT, maxT, err)
	}
	samePointsAs(t, "Query", got, want)
	samePointsAs(t, "QueryEach", collectEach(t, e, name, minT, maxT), want)
	buckets, err := e.WindowAgg(name, minT, maxT, 0)
	if err != nil {
		t.Fatalf("WindowAgg %s: %v", name, err)
	}
	var wb Bucket
	for i, p := range want {
		if i == 0 || p.V < wb.Min {
			wb.Min = p.V
		}
		if i == 0 || p.V > wb.Max {
			wb.Max = p.V
		}
		wb.Count++
		wb.Sum += p.V
	}
	if wb.Count == 0 {
		if len(buckets) != 0 {
			t.Fatalf("WindowAgg %s [%d, %d] = %+v, want no buckets", name, minT, maxT, buckets)
		}
		return
	}
	if len(buckets) != 1 {
		t.Fatalf("WindowAgg %s [%d, %d]: %d buckets, want 1", name, minT, maxT, len(buckets))
	}
	b := buckets[0]
	if b.Count != wb.Count || b.Min != wb.Min || b.Max != wb.Max || b.Sum != wb.Sum {
		t.Fatalf("WindowAgg %s [%d, %d] = %+v, want count %d min %d max %d sum %d",
			name, minT, maxT, b, wb.Count, wb.Min, wb.Max, wb.Sum)
	}
}

func checkFloatsAgainstModel(t *testing.T, e *Engine, m model, name string, minT, maxT int64) {
	t.Helper()
	want := m.floats(name, minT, maxT)
	got, err := e.QueryFloats(name, minT, maxT)
	if err != nil {
		t.Fatalf("QueryFloats %s [%d, %d]: %v", name, minT, maxT, err)
	}
	if len(got) != len(want) {
		t.Fatalf("QueryFloats %s [%d, %d]: %d points, want %d", name, minT, maxT, len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("QueryFloats %s point %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// checkKindsAgainstModel checks SeriesKind of every named series: the kind
// the model wrote when Series lists the series, "" otherwise.
func checkKindsAgainstModel(t *testing.T, e *Engine, m model, names []string) {
	t.Helper()
	listed := map[string]bool{}
	for _, name := range e.Series() {
		listed[name] = true
	}
	for _, name := range names {
		want := ""
		if s, ok := m[name]; ok && listed[name] {
			want = intCol.kind
			if s.float {
				want = floatCol.kind
			}
		}
		if got := e.SeriesKind(name); got != want {
			t.Fatalf("SeriesKind %s = %q, want %q (listed %v)", name, got, want, listed[name])
		}
	}
}

func samePointsAs(t *testing.T, what string, got, want []tsfile.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// modelSpan is the timestamp domain of the model workload. It is wide enough
// that a whole-range scan of an integer series spans several scan pages.
const modelSpan = 3 * scanPageSize

// randomBatchT draws a batch's timestamps: a mostly ascending run with
// out-of-order stragglers and repeated timestamps, so each batch carries
// in-batch overwrites.
func randomBatchT(rng *rand.Rand, n int) []int64 {
	ts := make([]int64, n)
	start := rng.Int63n(modelSpan)
	for i := range ts {
		switch rng.Intn(8) {
		case 0:
			ts[i] = rng.Int63n(modelSpan) // straggler anywhere
		case 1:
			if i > 0 {
				ts[i] = ts[rng.Intn(i)] // duplicate within the batch
				continue
			}
			ts[i] = start
		default:
			ts[i] = (start + int64(i)*int64(1+rng.Intn(2))) % modelSpan
		}
	}
	return ts
}

// inOrderBatchT draws a batch's timestamps the way ingest writes them:
// ascending in steps of 1 or 2 from the series' next timestamp, which it
// moves past the batch, so no two batches of a series overlap.
func inOrderBatchT(rng *rand.Rand, n int, next *int64) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = *next
		*next += 1 + rng.Int63n(2)
	}
	return ts
}

// randomFloat mixes decimal values (scaled chunks) with non-decimal ones
// (raw chunks).
func randomFloat(rng *rand.Rand, rawChunks bool) float64 {
	if rawChunks {
		return rng.NormFloat64() * 1e3
	}
	return float64(rng.Intn(2_000_000)-1_000_000) / 100
}

// runModel drives one seeded sequence of inserts, deletes, flushes,
// compactions, clean reopens and crashes, checking every read API against
// the model after each step. Batches land anywhere in the span, so files overlap and merge
// runs are a few samples long; inOrder draws them as ingest writes them
// instead, so files hold disjoint ranges and runs reach chunk ends,
// tombstones and page ends. It returns how many chunks the engines' caches
// packed.
func runModel(t *testing.T, seed int64, steps int, inOrder bool, cacheBytes int64) (packs int64) {
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Options{Dir: dir, FlushThreshold: 1 << 30, CacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open()
	defer func() {
		packs += e.Stats().Cache.Packs
		e.Close()
	}()
	rng := rand.New(rand.NewSource(seed))
	m := model{}
	intNames := []string{"m.i0", "m.i1"}
	floatNames := []string{"m.f0", "m.f1"}
	rawFloats := map[string]bool{"m.f1": true}
	next := map[string]int64{} // per series, when inOrder
	batchT := func(name string, n int) []int64 {
		if inOrder {
			at := next[name]
			defer func() { next[name] = at }()
			return inOrderBatchT(rng, n, &at)
		}
		return randomBatchT(rng, n)
	}
	for step := 0; step < steps; step++ {
		var op string
		switch r := rng.Intn(21); {
		case r < 8:
			name := intNames[rng.Intn(len(intNames))]
			ts := batchT(name, 200+rng.Intn(1800))
			pts := make([]tsfile.Point, len(ts))
			s := m.series(name, false)
			for i, tt := range ts {
				pts[i] = tsfile.Point{T: tt, V: rng.Int63n(1<<40) - 1<<39}
				s.ints[tt] = pts[i].V
			}
			if err := e.InsertBatch(name, pts); err != nil {
				t.Fatalf("seed %d step %d: InsertBatch: %v", seed, step, err)
			}
			op = fmt.Sprintf("insert %s x%d", name, len(pts))
		case r < 12:
			name := floatNames[rng.Intn(len(floatNames))]
			ts := batchT(name, 100+rng.Intn(900))
			pts := make([]tsfile.FloatPoint, len(ts))
			s := m.series(name, true)
			for i, tt := range ts {
				pts[i] = tsfile.FloatPoint{T: tt, V: randomFloat(rng, rawFloats[name])}
				s.flts[tt] = pts[i].V
			}
			if err := e.InsertFloatBatch(name, pts); err != nil {
				t.Fatalf("seed %d step %d: InsertFloatBatch: %v", seed, step, err)
			}
			op = fmt.Sprintf("insert %s x%d", name, len(pts))
		case r < 15:
			if err := e.Flush(); err != nil {
				t.Fatalf("seed %d step %d: Flush: %v", seed, step, err)
			}
			op = "flush"
		case r < 17:
			all := append(append([]string(nil), intNames...), floatNames...)
			name := all[rng.Intn(len(all))]
			lo := rng.Int63n(modelSpan)
			hi := lo + rng.Int63n(modelSpan/4)
			if err := e.DeleteRange(name, lo, hi); err != nil {
				t.Fatalf("seed %d step %d: DeleteRange: %v", seed, step, err)
			}
			m.deleteRange(name, lo, hi)
			op = fmt.Sprintf("delete %s [%d, %d]", name, lo, hi)
		case r < 18:
			if err := e.Compact(); err != nil {
				t.Fatalf("seed %d step %d: Compact: %v", seed, step, err)
			}
			op = "compact"
		case r < 20:
			packs += e.Stats().Cache.Packs
			if err := e.Close(); err != nil {
				t.Fatalf("seed %d step %d: Close: %v", seed, step, err)
			}
			e = open()
			op = "reopen"
		default:
			packs += e.Stats().Cache.Packs
			crash(e)
			e = open()
			op = "crash"
		}
		t.Logf("seed %d step %d: %s", seed, step, op)
		lo := rng.Int63n(modelSpan)
		hi := lo + rng.Int63n(modelSpan)
		for _, name := range intNames {
			checkIntsAgainstModel(t, e, m, name, math.MinInt64, math.MaxInt64)
			checkIntsAgainstModel(t, e, m, name, lo, hi)
		}
		for _, name := range floatNames {
			checkFloatsAgainstModel(t, e, m, name, math.MinInt64, math.MaxInt64)
			checkFloatsAgainstModel(t, e, m, name, lo, hi)
		}
		checkKindsAgainstModel(t, e, m, append(append([]string(nil), intNames...), floatNames...))
	}
	return packs
}

// TestEngineMatchesModel runs seeded random workloads over integer and float
// series — batches with duplicate and out-of-order timestamps, flushes,
// range deletes, compactions, close/reopen and crash/reopen — and after
// every step compares Query, multi-page QueryEach, QueryFloats, a
// whole-range WindowAgg and SeriesKind with the model. Twelve random seeds
// put a crash after a delete of buffered points. Three more seeds write in
// order, so whole-chunk runs, runs cut by the series' own tombstones, runs
// that reach a page end and runs beside another series' tombstone are all
// checked too.
func TestEngineMatchesModel(t *testing.T) {
	// The default cache admits every chunk; an 8 KiB one (512 points) admits
	// only small chunks, declines the rest, so most scans read their chunks
	// into pooled buffers, and packs the chunks it holds once it runs out of
	// room, so reads hit packed entries too: most of its seeds must pack.
	for _, c := range []struct {
		prefix string
		bytes  int64
	}{{"", 0}, {"smallcache-", 8 << 10}} {
		packed, seeds := 0, 0
		run := func(name string, seed int64, inOrder bool) {
			t.Run(fmt.Sprintf("%s%s%d", c.prefix, name, seed), func(t *testing.T) {
				seeds++
				if runModel(t, seed, 40, inOrder, c.bytes) > 0 {
					packed++
				}
			})
		}
		for seed := int64(1); seed <= 12; seed++ {
			run("seed", seed, false)
		}
		for seed := int64(4); seed <= 6; seed++ {
			run("inorder-seed", seed, true)
		}
		// Judged only when -run selected every seed.
		if c.bytes > 0 && seeds == 15 && packed*2 < seeds {
			t.Errorf("%d of %d %sseeds packed a chunk, want most", packed, seeds, c.prefix)
		}
	}
}
