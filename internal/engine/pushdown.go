package engine

import (
	"math"
	"runtime"
	"sort"

	"bos/internal/pushdown"
	"bos/internal/tsfile"
)

// The engine's side of the compressed-domain executor: planning. The
// internal/pushdown evaluator is only correct for a chunk whose points are
// exactly the query result over the chunk's time interval — no other chunk,
// no memtable point, and no tombstone may override or mask anything in it.
// planPushdown partitions a query range accordingly: "exclusive" chunks are
// handed to the evaluator (stats fold / partial decode), and the complement
// intervals run through the classic merged scan (query), so the two
// paths compose into exactly the result a full merged scan would produce.
//
// In the steady state the engine produces — time-ordered ingest flushed into
// files with disjoint time ranges, memtable drained, deletes compacted away —
// every chunk is exclusive and the merged scan never runs.

// chunkRef is one on-disk chunk considered by the planner. lo/hi is the
// chunk's footer time interval clipped to the query range.
type chunkRef struct {
	df     *dataFile
	ci     int
	meta   tsfile.ChunkMeta
	lo, hi int64
}

// planPushdown splits [minT, maxT] into exclusive chunks (evaluated in the
// compressed domain) and gap intervals (evaluated by the merged scan). Caller
// holds structMu (read suffices) with closed checked; minT <= maxT.
func (e *Engine) planPushdown(series string, minT, maxT int64) ([]chunkRef, [][2]int64, error) {
	var refs []chunkRef
	for _, sf := range e.holding[series] {
		for ci, m := range sf.chunks {
			if m.MaxT < minT || m.MinT > maxT {
				continue
			}
			refs = append(refs, chunkRef{df: sf.df, ci: ci, meta: m, lo: max(m.MinT, minT), hi: min(m.MaxT, maxT)})
		}
	}
	if len(refs) == 0 {
		return nil, [][2]int64{{minT, maxT}}, nil
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].lo < refs[j].lo })
	blocked := make([]bool, len(refs))
	// Chunk-vs-chunk: any interval overlap means newest-wins merging is
	// required, which the evaluator cannot do. Chunk counts per series are
	// bounded by the file count, so the pairwise sweep stays cheap.
	for i := range refs {
		for j := i + 1; j < len(refs) && refs[j].lo <= refs[i].hi; j++ {
			blocked[i], blocked[j] = true, true
		}
	}
	// Chunk-vs-memtable: a buffered point inside a chunk's interval is fresher
	// than the chunk. memSnapshot is sorted and already tombstone-masked, so
	// it is exactly what the merged scan would add.
	mem, err := memSnapshot(e, intCol, series, minT, maxT)
	if err != nil {
		return nil, nil, err
	}
	for i, ref := range refs {
		if blocked[i] || len(mem) == 0 {
			continue
		}
		k := sort.Search(len(mem), func(k int) bool { return mem[k].T >= ref.lo })
		if k < len(mem) && mem[k].T <= ref.hi {
			blocked[i] = true
		}
	}
	// Chunk-vs-tombstone: a tombstone with a later sequence than the chunk's
	// file masks points the evaluator would count.
	for _, ts := range e.tombs {
		if ts.series != series {
			continue
		}
		for i, ref := range refs {
			if !blocked[i] && ref.df.seq < ts.seq && ts.minT <= ref.hi && ts.maxT >= ref.lo {
				blocked[i] = true
			}
		}
	}
	excl := make([]chunkRef, 0, len(refs))
	cursor := minT
	var gaps [][2]int64
	done := false
	for i, ref := range refs {
		if blocked[i] {
			continue
		}
		if ref.lo > cursor {
			gaps = append(gaps, [2]int64{cursor, ref.lo - 1})
		}
		excl = append(excl, ref)
		if ref.hi == math.MaxInt64 {
			done = true
			break
		}
		cursor = ref.hi + 1
	}
	if !done && cursor <= maxT {
		gaps = append(gaps, [2]int64{cursor, maxT})
	}
	return excl, gaps, nil
}

// WindowAgg aggregates a series into fixed windows of `window` timestamp
// units anchored at minT, in the compressed domain where the data allows.
// window <= 0 collapses the whole range into a single bucket (Aggregate).
// Exclusive chunks are evaluated in parallel per file run; the results are
// value-identical to bucketing a full merged scan.
func (e *Engine) WindowAgg(series string, minT, maxT, window int64) ([]Bucket, error) {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if minT > maxT {
		return nil, nil
	}
	excl, gaps, err := e.planPushdown(series, minT, maxT)
	if err != nil {
		return nil, err
	}
	w := pushdown.NewWindows(minT, window)
	groups := groupByFile(excl)
	if len(groups) > 0 {
		parts := make([]*pushdown.Windows, len(groups))
		errs := make([]error, len(groups))
		fanOut(runtime.GOMAXPROCS(0), len(groups), func(i int) {
			part := pushdown.NewWindows(minT, window)
			ev := &pushdown.Evaluator{
				R: groups[i][0].df.reader, Series: series,
				MinT: minT, MaxT: maxT, W: part, T: &e.ptiers,
			}
			for _, ref := range groups[i] {
				if errs[i] = ev.EvalChunk(ref.ci, ref.meta); errs[i] != nil {
					return
				}
			}
			parts[i] = part
		})
		for i, part := range parts {
			if errs[i] != nil {
				return nil, errs[i]
			}
			w.Merge(part)
		}
	}
	for _, g := range gaps {
		pts, err := query(e, intCol, series, g[0], g[1])
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			w.Add(p.T, p.V)
		}
	}
	return w.Buckets(), nil
}

// groupByFile splits the exclusive chunks into per-file runs, preserving file
// order (the planner's refs arrive time-sorted, which within one file is also
// chunk order for engine-written files).
func groupByFile(refs []chunkRef) [][]chunkRef {
	var groups [][]chunkRef
	idx := map[*dataFile]int{}
	for _, ref := range refs {
		i, ok := idx[ref.df]
		if !ok {
			i = len(groups)
			idx[ref.df] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], ref)
	}
	return groups
}

// Aggregate returns the count/min/max/sum of a series over [minT, maxT] as a
// single bucket (Count 0 when the range is empty), answered from chunk
// statistics and partial decode where possible.
func (e *Engine) Aggregate(series string, minT, maxT int64) (Bucket, error) {
	buckets, err := e.WindowAgg(series, minT, maxT, 0)
	if err != nil {
		return Bucket{}, err
	}
	if len(buckets) == 0 {
		return Bucket{Start: minT}, nil
	}
	return buckets[0], nil
}

// QueryFilterEach streams the points of a series with minT <= T <= maxT and
// minV <= V <= maxV through fn in time order. Chunks disproved by footer
// statistics cost nothing; BOS-packed exclusive chunks decode only the value
// planes the predicate can reach. The matching points are collected under the
// engine read lock and fn runs after it is released, so a slow consumer
// cannot stall writes (the result is bounded by the filtered size, not the
// scanned size).
func (e *Engine) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	pts, err := e.queryFilter(series, minT, maxT, minV, maxV)
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) queryFilter(series string, minT, maxT, minV, maxV int64) ([]tsfile.Point, error) {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if minT > maxT || minV > maxV {
		return nil, nil
	}
	excl, gaps, err := e.planPushdown(series, minT, maxT)
	if err != nil {
		return nil, err
	}
	// Exclusive chunk intervals and gaps tile the range disjointly, so
	// walking the segments in start order yields global time order.
	type segment struct {
		start int64
		ref   *chunkRef
		gap   [2]int64
	}
	segs := make([]segment, 0, len(excl)+len(gaps))
	for i := range excl {
		segs = append(segs, segment{start: excl[i].lo, ref: &excl[i]})
	}
	for _, g := range gaps {
		segs = append(segs, segment{start: g[0], gap: g})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	var out []tsfile.Point
	f := &pushdown.Filter{
		Series: series, MinT: minT, MaxT: maxT,
		MinV: minV, MaxV: maxV, T: &e.ptiers,
	}
	for _, seg := range segs {
		if seg.ref != nil {
			f.R = seg.ref.df.reader
			err := f.FilterChunk(seg.ref.ci, seg.ref.meta, func(p tsfile.Point) error {
				out = append(out, p)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		pts, err := query(e, intCol, series, seg.gap[0], seg.gap[1])
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if p.V >= minV && p.V <= maxV {
				out = append(out, p)
			}
		}
	}
	return out, nil
}
