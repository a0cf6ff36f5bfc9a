package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"bos/internal/tsfile"
)

// Integer and float series share one path through the engine. A column
// bundles what differs between the two value kinds — the stripe buffers and
// the WAL payload encoder — and every memtable, flush, query and compaction
// routine is written once over column[V]. File reads need no column: every
// one goes through fileCursor[V] (scan.go), and every chunk is encoded by
// tsfile.EncodeSeries[V]. Only the exported entry points (Insert vs
// InsertFloat, Query vs QueryFloats) name a kind.

// column is one value kind's path through the engine. The WAL payload
// encoder is a record kind and a per-value appender rather than one function
// over the batch, so the batch never passes through a function value and
// does not escape on the insert path.
type column[V int64 | float64] struct {
	kind     string // "int" or "float", as SeriesKind reports it
	buf      func(*memStripe) *memBuf[V]
	walKind  byte
	walValue func([]byte, V) []byte
}

var intCol = &column[int64]{
	kind:     "int",
	buf:      func(st *memStripe) *memBuf[int64] { return &st.ints },
	walKind:  walInsert,
	walValue: binary.AppendVarint,
}

var floatCol = &column[float64]{
	kind:     "float",
	buf:      func(st *memStripe) *memBuf[float64] { return &st.floats },
	walKind:  walFloat,
	walValue: appendFloatBits,
}

// memBuf is one value kind's share of a memtable stripe.
type memBuf[V int64 | float64] struct {
	mem map[string][]tsfile.Sample[V] // the live buffer
	// flush holds the snapshot being encoded while a flush is in flight
	// (nil otherwise). It is immutable for the flight's duration: queries
	// merge it under mu.RLock, and the encoder reads it with no lock at all.
	flush map[string][]tsfile.Sample[V]
}

// buffered reports how many points of the series the buffer holds, live and
// in flight.
func (b *memBuf[V]) buffered(series string) int {
	return len(b.mem[series]) + len(b.flush[series])
}

// eachBuffered calls fn for every series with live or in-flight points in b,
// with the points' count and time span. Caller holds the stripe lock.
func eachBuffered[V int64 | float64](b *memBuf[V], kind string, fn func(name, kind string, n int, minT, maxT int64)) {
	for _, m := range []map[string][]tsfile.Sample[V]{b.mem, b.flush} {
		for name, pts := range m {
			if len(pts) == 0 {
				continue
			}
			lo, hi := pts[0].T, pts[0].T
			for _, p := range pts {
				lo, hi = min(lo, p.T), max(hi, p.T)
			}
			fn(name, kind, len(pts), lo, hi)
		}
	}
}

// insert adds a batch to one series of col's kind. Writers on series that
// hash to different stripes proceed in parallel; the WAL record is framed
// into the forming commit group under the stripe lock (memory only) and made
// durable by the group's leader after every lock is released, so a slow WAL
// sync never blocks writers on other stripes. If the WAL write fails the
// points remain buffered (and flushable) but the error is returned, so
// callers know durability was not achieved.
//
// A series takes its kind at its first write, and the stripe's kind record
// keeps it for the engine's lifetime, even once every point is deleted (Open
// seeds it from the data files and the WAL). So a batch of the other kind
// fails with ErrSeriesKind whether the series' points are buffered, in
// flight or on disk.
func insert[V int64 | float64](e *Engine, col *column[V], series string, pts []tsfile.Sample[V]) error {
	if len(pts) == 0 {
		return nil
	}
	st := e.stripe(series)
	st.mu.Lock()
	if e.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	if kind, ok := st.kinds[series]; !ok {
		st.kinds[series] = col.kind
	} else if kind != col.kind {
		st.mu.Unlock()
		return fmt.Errorf("%w: %q holds %s points", ErrSeriesKind, series, kind)
	}
	var g *walGroup
	var leader bool
	if e.log != nil {
		g, leader = e.walEnqueue(func(dst []byte) []byte {
			return appendPoints(dst, col.walKind, series, pts, col.walValue)
		})
	}
	b := col.buf(st)
	b.mem[series] = append(b.mem[series], pts...)
	total := e.memPts.Add(int64(len(pts)))
	st.mu.Unlock()
	if g != nil {
		if err := e.walAwait(g, leader); err != nil {
			return err
		}
	}
	if total >= int64(e.opt.flushThreshold()) {
		return e.maybeFlush()
	}
	return nil
}

// replay appends recovered WAL points to the memtable while Open runs, before
// the engine is shared.
func replay[V int64 | float64](e *Engine, col *column[V], series string, pts []tsfile.Sample[V]) {
	st := e.stripe(series)
	b := col.buf(st)
	b.mem[series] = append(b.mem[series], pts...)
	st.kinds[series] = col.kind
	e.memPts.Add(int64(len(pts)))
}

// replayTombstone applies a recovered delete while Open runs. A delete in
// log order drops the series' points replayed before it, of both kinds, as
// DeleteRange dropped them from the memtable; a carried copy was logged
// after newer inserts, so it only joins the tombstone list, unless the list
// holds it already: a delete made during a flush has its own record in the
// fresh log, and the flush carries a copy of it there too.
func replayTombstone(e *Engine, ts tombstone, carried bool) {
	if carried && slices.Contains(e.tombs, ts) {
		return
	}
	if !carried {
		st := e.stripe(ts.series)
		e.memPts.Add(-prune(&st.ints, ts.series, ts.minT, ts.maxT) - prune(&st.floats, ts.series, ts.minT, ts.maxT))
	}
	e.tombs = append(e.tombs, ts)
}

// dedupeSort returns a time-sorted copy of pts holding the last inserted
// value for each timestamp (stable sort preserves insertion order within
// equal times). It never sorts in place: queries share the in-flight flush
// snapshot the encoder passes in. A buffer already strictly increasing in
// time, as every in-order writer's is, is only copied.
func dedupeSort[V int64 | float64](pts []tsfile.Sample[V]) []tsfile.Sample[V] {
	sorted := append([]tsfile.Sample[V](nil), pts...)
	if increasing(sorted) {
		return sorted
	}
	slices.SortStableFunc(sorted, func(a, b tsfile.Sample[V]) int { return cmp.Compare(a.T, b.T) })
	out := sorted[:0]
	for _, p := range sorted {
		if len(out) > 0 && out[len(out)-1].T == p.T {
			out[len(out)-1] = p // last write wins
			continue
		}
		out = append(out, p)
	}
	return out
}

// increasing reports whether pts is strictly increasing in time.
func increasing[V int64 | float64](pts []tsfile.Sample[V]) bool {
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			return false
		}
	}
	return true
}

// memSnapshot returns a deduped, sorted copy of the series' buffered points
// of col's kind within [minT, maxT], taken under the stripe read lock. While
// a flush is in flight, the snapshot being encoded is merged in ahead of the
// live buffer (it is older, so the live buffer wins timestamp collisions),
// masked by any tombstone that arrived after the snapshot was taken —
// DeleteRange cannot prune the in-flight maps. Callers hold structMu shared
// (masking reads e.tombs and e.flushSeq).
//
// Every typed read takes this snapshot, so it is where a read of the other
// value kind fails: with tsfile.ErrKindMismatch, from the stripe's kind
// record, whether the series' points are buffered, in flight or on disk.
func memSnapshot[V int64 | float64](e *Engine, col *column[V], series string, minT, maxT int64) ([]tsfile.Sample[V], error) {
	st := e.stripe(series)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if kind, ok := st.kinds[series]; ok && kind != col.kind {
		return nil, fmt.Errorf("%w: %q holds %s points", tsfile.ErrKindMismatch, series, kind)
	}
	b := col.buf(st)
	live, flush := b.mem[series], b.flush[series]
	pts := make([]tsfile.Sample[V], 0, len(live)+len(flush))
	for _, p := range flush {
		if p.T >= minT && p.T <= maxT && !e.tombs.hide(series, e.flushSeq, p.T) {
			pts = append(pts, p)
		}
	}
	for _, p := range live {
		if p.T >= minT && p.T <= maxT {
			pts = append(pts, p)
		}
	}
	return dedupeSort(pts), nil
}

// query merges one series of col's kind over [minT, maxT]: every data file,
// oldest first, then the memtable. Caller holds structMu (read suffices) and
// has checked closed.
func query[V int64 | float64](e *Engine, col *column[V], series string, minT, maxT int64) ([]tsfile.Sample[V], error) {
	mem, err := memSnapshot(e, col, series, minT, maxT)
	if err != nil {
		return nil, err
	}
	return mergeFiles(e.holding[series], e.tombs, series, minT, maxT, mem)
}

// maxMergeRoom bounds the room mergeFiles makes from the files' footers,
// which a corrupt file could make claim any count.
const maxMergeRoom = 1 << 20

// mergeFiles merges one series over [minT, maxT] across files, oldest
// first, then newest, with tsfile.Merge's newest-wins rule. Points that
// tombs hide are dropped. The answer is sized from the files' footers
// (tsfile.Estimate) and grows only past their estimate. The file cursors
// are released when the merge ends; Fill copies every sample out first.
func mergeFiles[V int64 | float64](files []seriesFile, tombs tombstones, series string, minT, maxT int64, newest []tsfile.Sample[V]) ([]tsfile.Sample[V], error) {
	srcs, err := fileCursors[V](files, tombs, series, minT, maxT)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 && len(newest) == 0 {
		return nil, nil
	}
	m := tsfile.NewMerge(append(srcs, tsfile.NewSliceCursor(newest))...)
	defer m.Release()
	n := len(newest)
	for _, sf := range files {
		n += tsfile.Estimate(sf.chunks, minT, maxT)
	}
	out, more := m.Fill(make([]tsfile.Sample[V], 0, min(n, maxMergeRoom)))
	for more {
		out, more = m.Fill(slices.Grow(out, max(len(out), 256)))
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// prune drops the series' live points in [minT, maxT] (DeleteRange's
// memtable half) and returns how many it dropped. Caller holds the stripe
// lock.
func prune[V int64 | float64](b *memBuf[V], series string, minT, maxT int64) int64 {
	pts := b.mem[series]
	if len(pts) == 0 {
		return 0
	}
	kept := pts[:0]
	for _, p := range pts {
		if p.T < minT || p.T > maxT {
			kept = append(kept, p)
		}
	}
	b.mem[series] = kept
	return int64(len(pts) - len(kept))
}

// restore moves a failed flush snapshot back in front of the live buffer,
// dropping what a tombstone that arrived mid-flight hides. It returns how
// many points it dropped. Caller holds structMu and every stripe lock.
func restore[V int64 | float64](e *Engine, b *memBuf[V], seq int) int64 {
	var dropped int64
	for name, pts := range b.flush {
		kept := pts[:0]
		for _, p := range pts {
			if e.tombs.hide(name, seq, p.T) {
				dropped++
				continue
			}
			kept = append(kept, p)
		}
		if len(kept) > 0 {
			b.mem[name] = append(kept, b.mem[name]...)
		}
	}
	b.flush = nil
	return dropped
}

// encodeJob is one series of a flush snapshot, ready to encode.
type encodeJob struct {
	name   string
	encode func() (tsfile.EncodedChunk, error)
}

// flushJobs lists the in-flight snapshot's series of col's kind in name
// order. The snapshot is immutable while the flush is in flight, so the jobs
// read it with no lock held.
func flushJobs[V int64 | float64](e *Engine, col *column[V]) []encodeJob {
	var names []string
	for i := range e.stripes {
		for name := range col.buf(&e.stripes[i]).flush {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	jobs := make([]encodeJob, len(names))
	for i, name := range names {
		pts := col.buf(e.stripe(name)).flush[name]
		jobs[i] = encodeJob{name: name, encode: func() (tsfile.EncodedChunk, error) {
			return tsfile.EncodeSeries(e.opt.File, dedupeSort(pts), "")
		}}
	}
	return jobs
}

// mergeSeries folds one series of value kind V across the compaction's
// files, dropping tombstoned points (compaction reclaims deleted ranges), and
// encodes the result. With no packer names it keeps the file's default
// packer. Otherwise it encodes the series once per name and keeps the
// smallest chunk body; on a tie the earlier name wins.
func mergeSeries[V int64 | float64](c *Compaction, name string, packerNames []string) mergedSeries {
	pts, err := mergeFiles[V](c.inputs[name], c.tombs, name, math.MinInt64, math.MaxInt64, nil)
	if err != nil {
		return mergedSeries{err: fmt.Errorf("engine: compact %s: %w", name, err)}
	}
	if len(packerNames) == 0 {
		packerNames = []string{""}
	}
	r := mergedSeries{count: len(pts)}
	for i, pn := range packerNames {
		chunk, err := tsfile.EncodeSeries(c.e.opt.File, pts, pn)
		if err != nil {
			return mergedSeries{err: fmt.Errorf("engine: compact %s: %w", name, err)}
		}
		if i == 0 || len(chunk.Body) < len(r.chunk.Body) {
			r.chunk, r.packerName = chunk, pn
		}
	}
	return r
}
