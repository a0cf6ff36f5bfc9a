// Package pushdown is the compressed-domain query executor: it answers
// windowed aggregates and value-filtered scans over tsfile chunks while
// decoding as little as possible, in three tiers.
//
//	tier 1 (stats)  — the chunk is fully inside the time range, lands in one
//	                  window, and carries v2 footer statistics: its
//	                  count/min/max/sum fold into the bucket with zero IO.
//	tier 2 (inlier) — only part of the chunk matters: the time column is
//	                  decoded, but the value column is decoded only in the
//	                  blocks the needed positions fall in, or in the needed
//	                  planes (band-filtered decode that skips outlier or
//	                  inlier planes the predicate cannot reach).
//	tier 3 (full)   — everything else: classic full chunk decode.
//
// The package is deliberately engine-agnostic: internal/engine plans which
// chunks are safe to evaluate here (no overlap, no tombstones, no fresher
// memtable points) and routes the remainder through its merged scan.
package pushdown

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"bos/internal/tsfile"
)

// Tiers counts how chunks were answered, one tier per evaluated chunk.
// Safe for concurrent use.
type Tiers struct {
	Stats  atomic.Int64 // answered from footer statistics alone
	Inlier atomic.Int64 // partial decode: a position range or a plane subset
	Full   atomic.Int64 // full value-column decode
}

// Snapshot is a point-in-time copy of the counters, JSON-ready.
type Snapshot struct {
	Stats  int64 `json:"stats"`
	Inlier int64 `json:"inlier"`
	Full   int64 `json:"full"`
}

// Snapshot reads the counters.
func (t *Tiers) Snapshot() Snapshot {
	return Snapshot{Stats: t.Stats.Load(), Inlier: t.Inlier.Load(), Full: t.Full.Load()}
}

// Add folds another snapshot in (cluster stats rollup).
func (s *Snapshot) Add(o Snapshot) {
	s.Stats += o.Stats
	s.Inlier += o.Inlier
	s.Full += o.Full
}

// Bucket is one aggregation window. With window == 0 it is the whole-range
// aggregate. Sum wraps on overflow, like SQL engines over int64.
type Bucket struct {
	Start    int64 // window start timestamp (inclusive)
	Count    int
	Min, Max int64
	Sum      int64
}

// Avg returns the window mean.
func (b Bucket) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Sum) / float64(b.Count)
}

// Windows accumulates per-window aggregates keyed by window start, from any
// mix of raw points and whole-chunk statistics. Not safe for concurrent use;
// parallel evaluators each fill their own and Merge the results.
type Windows struct {
	minT   int64
	window int64 // <= 0: a single bucket spanning the whole range
	m      map[int64]*Bucket
}

// NewWindows returns an accumulator for windows of `window` timestamp units
// anchored at minT — the exact bucketing of engine.Downsample. window <= 0
// collapses everything into one bucket (a plain aggregate).
func NewWindows(minT, window int64) *Windows {
	return &Windows{minT: minT, window: window, m: map[int64]*Bucket{}}
}

// Start returns the window start for timestamp t, replicating
// engine.Downsample's formula.
func (w *Windows) Start(t int64) int64 {
	if w.window <= 0 {
		return w.minT
	}
	return w.minT + (t-w.minT)/w.window*w.window
}

// OneWindow reports whether [minT, maxT] falls inside a single window — the
// precondition for folding whole-chunk statistics into a bucket.
func (w *Windows) OneWindow(minT, maxT int64) bool {
	return w.Start(minT) == w.Start(maxT)
}

// Add folds one point into its window.
func (w *Windows) Add(t, v int64) {
	w.AddBucket(Bucket{Start: w.Start(t), Count: 1, Min: v, Max: v, Sum: v})
}

// AddRun folds the points (times[i], vals[i]) into their windows, with the
// same result as calling Add on each in turn. Each maximal run of
// consecutive points that share a window becomes one bucket, added through
// AddBucket, so a run costs one map access rather than one per point. times
// and vals have the same length.
func (w *Windows) AddRun(times, vals []int64) {
	vals = vals[:len(times)]
	for i := 0; i < len(times); {
		lo, hi := w.offsets(times[i])
		b := Bucket{Start: w.Start(times[i]), Min: vals[i], Max: vals[i], Sum: vals[i]}
		j := i + 1
		for ; j < len(times); j++ {
			if d := times[j] - w.minT; d < lo || d > hi {
				break
			}
			v := vals[j]
			b.Min, b.Max = min(b.Min, v), max(b.Max, v)
			b.Sum += v
		}
		b.Count = j - i
		w.AddBucket(b)
		i = j
	}
}

// offsets returns the range [lo, hi] of offsets d = t' - minT (wrapping, as
// Start computes them) whose window is t's. Start truncates d/window toward
// zero, so quotient q > 0 holds [q*window, q*window+window-1], q < 0 holds
// [q*window-window+1, q*window] and q == 0 holds (-window, window), each
// clipped to int64. Distinct quotients give distinct starts, because they
// differ by less than 2^64 in q*window, so an offset is in the range exactly
// when its point's Start equals t's.
func (w *Windows) offsets(t int64) (lo, hi int64) {
	if w.window <= 0 {
		return math.MinInt64, math.MaxInt64
	}
	q := (t - w.minT) / w.window
	r := q * w.window // |r| <= |t-minT|: no wrap
	switch {
	case q > 0:
		return r, r + min(w.window-1, math.MaxInt64-r)
	case q < 0:
		return r - min(w.window-1, r-math.MinInt64), r
	}
	return -(w.window - 1), w.window - 1
}

// AddChunkStats folds a whole chunk's footer statistics into the window
// holding it. The caller must have checked OneWindow(m.MinT, m.MaxT) and
// m.HasStats.
func (w *Windows) AddChunkStats(m tsfile.ChunkMeta) {
	w.AddBucket(Bucket{Start: w.Start(m.MinT), Count: m.Count, Min: m.MinV, Max: m.MaxV, Sum: m.Sum})
}

// AddBucket folds an aggregate of the window starting at b.Start into the
// accumulator: counts add, sums add with wrapping, min and max widen. It is
// the one rule that combines two partial aggregates of a window. An empty
// bucket adds nothing.
func (w *Windows) AddBucket(b Bucket) {
	if b.Count == 0 {
		return
	}
	cur := w.m[b.Start]
	if cur == nil {
		nb := b // only a new window's bucket is allocated
		w.m[b.Start] = &nb
		return
	}
	cur.Min, cur.Max = min(cur.Min, b.Min), max(cur.Max, b.Max)
	cur.Count += b.Count
	cur.Sum = int64(uint64(cur.Sum) + uint64(b.Sum))
}

// Merge folds another accumulator in (same minT and window).
func (w *Windows) Merge(o *Windows) {
	for _, b := range o.m {
		w.AddBucket(*b)
	}
}

// Buckets returns the non-empty windows in time order.
func (w *Windows) Buckets() []Bucket {
	out := make([]Bucket, 0, len(w.m))
	for _, b := range w.m {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Evaluator aggregates the chunks of one series over [MinT, MaxT] into W,
// tier by tier. It assumes the caller has already established that each
// chunk it is handed may be answered from the file alone (no fresher
// overlapping data, no tombstones).
type Evaluator struct {
	R          *tsfile.Reader
	Series     string
	MinT, MaxT int64
	W          *Windows
	T          *Tiers
}

// EvalChunk folds chunk ci into the accumulator. Chunks whose footer time
// range is disjoint from the query are ignored without counting a tier.
func (e *Evaluator) EvalChunk(ci int, m tsfile.ChunkMeta) error {
	if m.MaxT < e.MinT || m.MinT > e.MaxT {
		return nil
	}
	if m.Kind != 0 {
		return fmt.Errorf("%w: chunk kind %d is not integer", tsfile.ErrKindMismatch, m.Kind)
	}
	covered := m.MinT >= e.MinT && m.MaxT <= e.MaxT
	if covered && m.HasStats && e.W.OneWindow(m.MinT, m.MaxT) {
		e.W.AddChunkStats(m)
		e.T.Stats.Add(1)
		return nil
	}
	h, err := e.R.OpenChunk(e.Series, ci)
	if err != nil {
		return err
	}
	defer h.Release()
	times := h.Times()
	lo := sort.Search(len(times), func(i int) bool { return times[i] >= e.MinT })
	hi := sort.Search(len(times), func(i int) bool { return times[i] > e.MaxT })
	if lo >= hi {
		// The footer ranges overlapped but no timestamp actually falls in
		// the query window; no value bits were touched.
		e.T.Stats.Add(1)
		return nil
	}
	vals, partial, err := h.ValueRange(lo, hi)
	if err != nil {
		return err
	}
	if partial {
		e.T.Inlier.Add(1)
	} else {
		e.T.Full.Add(1)
	}
	e.W.AddRun(times[lo:hi], vals)
	return nil
}

// Filter streams the points of one series matching both a time range and a
// value predicate, skipping value planes the predicate cannot reach.
type Filter struct {
	R          *tsfile.Reader
	Series     string
	MinT, MaxT int64
	MinV, MaxV int64
	T          *Tiers
}

// FilterChunk streams chunk ci's matching points through emit in time order.
// Chunks disproved by footer statistics cost nothing; BOS-packed chunks
// decode only the value planes whose band intersects [MinV, MaxV].
func (f *Filter) FilterChunk(ci int, m tsfile.ChunkMeta, emit func(tsfile.Point) error) error {
	if m.MaxT < f.MinT || m.MinT > f.MaxT {
		return nil
	}
	if m.Kind != 0 {
		return fmt.Errorf("%w: chunk kind %d is not integer", tsfile.ErrKindMismatch, m.Kind)
	}
	if m.MaxV < f.MinV || m.MinV > f.MaxV {
		// Statistics disprove the whole chunk.
		f.T.Stats.Add(1)
		return nil
	}
	h, err := f.R.OpenChunk(f.Series, ci)
	if err != nil {
		return err
	}
	defer h.Release()
	times := h.Times()
	lo := sort.Search(len(times), func(i int) bool { return times[i] >= f.MinT })
	hi := sort.Search(len(times), func(i int) bool { return times[i] > f.MaxT })
	if lo >= hi {
		f.T.Stats.Add(1)
		return nil
	}
	var emitErr error
	skipped, err := h.FilterValues(lo, hi, f.MinV, f.MaxV, func(i int, v int64) {
		if emitErr == nil {
			emitErr = emit(tsfile.Point{T: times[i], V: v})
		}
	})
	if err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	if skipped {
		f.T.Inlier.Add(1)
	} else {
		f.T.Full.Add(1)
	}
	return nil
}
