package engine

import (
	"math"
	"runtime"
	"sync"

	"bos/internal/tsfile"
)

// Streaming reads for the serving layer: QueryEach delivers a range scan
// through a callback with memory bounded by the scan page size, not the
// result size. Internally the merge runs in pages of scanPageSize points;
// each page holds the engine read lock only while it is being collected, so
// a slow consumer (a client on a congested connection) cannot stall inserts
// or flushes for the duration of the whole scan.
//
// The file iterators behind a scan are stateful: they persist across pages
// in a scanState, so page N+1 resumes decoding exactly where page N stopped
// instead of re-opening and re-seeking every file. The state is stamped with
// the engine generation at build time; flush, compaction commit, DeleteRange
// and Close bump the generation, and a page that observes a mismatch drops
// the cursors and rebuilds from the current cursor position. That keeps the
// paginated-snapshot guarantee of the stateless implementation: a write that
// lands between pages is observed by later pages only if its timestamp is
// past the cursor.

// scanPageSize is the number of points collected per locked merge pass.
const scanPageSize = 4096

// scanPages recycles page buffers across QueryEach calls.
var scanPages = sync.Pool{New: func() any {
	page := make([]tsfile.Point, 0, scanPageSize)
	return &page
}}

// QueryEach streams the points of a series in [minT, maxT] in time order,
// merging files and memtable with newest-wins semantics and honoring
// tombstones, exactly like Query. fn returning an error aborts the scan and
// returns that error.
func (e *Engine) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	page := scanPages.Get().(*[]tsfile.Point)
	defer scanPages.Put(page)
	cursor := minT
	sc := &scanState{}
	defer sc.release()
	for {
		pts, more, err := e.scanPage(series, sc, cursor, maxT, *page)
		if err != nil {
			return err
		}
		for _, p := range pts {
			if err := fn(p); err != nil {
				return err
			}
		}
		if !more || len(pts) == 0 {
			return nil
		}
		last := pts[len(pts)-1].T
		if last == math.MaxInt64 {
			return nil
		}
		cursor = last + 1
	}
}

// fileCursor is one data file's iterator over a series of value kind V,
// with tombstone-masked points skipped: a Merge source, and the only way any
// engine read reaches a data file. tombs holds only the series' tombstones
// that are newer than the file and overlap the scan, the ones that can hide
// its points. With none, the iterator's runs pass through whole; with some,
// a run stops below the next tombstone, so it never crosses a hidden
// timestamp.
type fileCursor[V int64 | float64] struct {
	it     *tsfile.Iterator[V]
	tombs  tombstones
	at     int64            // timestamp of the current point (tombs only)
	head   tsfile.Sample[V] // the point prime moved to
	ok     bool             // prime found a point
	primed bool             // the next Run returns head
}

// fileCursors opens a cursor over the series in [minT, maxT] on every file
// of files (the ones that hold the series, oldest first) whose chunks
// overlap that range, with room for one more source. Files that do not hold
// the series cost nothing.
func fileCursors[V int64 | float64](files []seriesFile, tombs tombstones, series string, minT, maxT int64) ([]tsfile.Cursor[V], error) {
	hiding := tombs.of(series, minT, maxT)
	srcs := make([]tsfile.Cursor[V], 0, len(files)+1)
	for _, sf := range files {
		if !tsfile.Overlaps(sf.chunks, minT, maxT) {
			continue
		}
		it, err := tsfile.Iter[V](sf.df.reader, series, minT, maxT)
		if err != nil {
			return nil, err
		}
		n := 0 // hiding is newest first: the file's tombstones are a prefix
		for n < len(hiding) && hiding[n].seq > sf.df.seq {
			n++
		}
		srcs = append(srcs, &fileCursor[V]{it: it, tombs: hiding[:n], at: math.MinInt64})
	}
	return srcs, nil
}

// prime moves the cursor to its first point ahead of the merge, so a scan
// can decode the files' first chunks in parallel. The next Run returns that
// point: a run that ends before its first sample.
func (c *fileCursor[V]) prime() {
	_, c.head, c.ok = c.Run(nil, math.MinInt64)
	c.primed = true
}

func (c *fileCursor[V]) Run(dst []tsfile.Sample[V], bound int64) ([]tsfile.Sample[V], tsfile.Sample[V], bool) {
	if c.primed {
		c.primed = false
		return dst, c.head, c.ok
	}
	if len(c.tombs) == 0 {
		return c.it.Run(dst, bound)
	}
	// The current point is visible, so a tombstone reaching past it starts
	// past it too: the run stops below the first such start.
	for _, ts := range c.tombs {
		if ts.maxT > c.at {
			bound = min(bound, ts.minT)
		}
	}
	dst, p, ok := c.it.Run(dst, bound)
	for ok && c.tombs.covers(p.T) {
		_, p, ok = c.it.Run(nil, math.MinInt64)
	}
	c.at = p.T
	return dst, p, ok
}

func (c *fileCursor[V]) Err() error { return c.it.Err() }

func (c *fileCursor[V]) Release() { c.it.Release() }

// scanState carries one QueryEach call's merge across pages: the file
// cursors persist, and each page swaps a fresh memtable snapshot in as the
// newest source. merge is nil until the first build and after any error; gen
// is compared against the engine generation each page.
type scanState struct {
	gen   uint64
	merge *tsfile.Merge[int64]
	mem   int // the memtable's source index in merge
}

// release drops the merge and returns its file cursors' pooled buffers:
// when a generation change or an error drops it, and when the scan ends.
func (sc *scanState) release() {
	if sc.merge != nil {
		sc.merge.Release()
		sc.merge = nil
	}
}

// rebuildScan (re)creates the per-file cursors starting at minT, oldest file
// first, with the memtable as the newest source. The cursors decode their
// first chunks on up to GOMAXPROCS goroutines, because that is where a cold
// scan pays its largest serial decode cost. Caller holds structMu (read
// suffices: the file list and generation are stable while held).
func (e *Engine) rebuildScan(sc *scanState, series string, minT, maxT int64) error {
	sc.release()
	srcs, err := fileCursors[int64](e.holding[series], e.tombs, series, minT, maxT)
	if err != nil {
		return err
	}
	fanOut(runtime.GOMAXPROCS(0), len(srcs), func(i int) { srcs[i].(*fileCursor[int64]).prime() })
	sc.mem = len(srcs)
	sc.merge = tsfile.NewMerge(append(srcs, tsfile.NewSliceCursor[int64](nil))...)
	sc.gen = e.gen
	return nil
}

// scanPage collects merged points starting at minT into page, up to its
// capacity. more reports whether the merge was cut short by the capacity
// (points past the last one remain). The memtable is re-snapshotted every
// page (it is mutable between pages); the file cursors persist in sc unless
// the engine generation moved.
func (e *Engine) scanPage(series string, sc *scanState, minT, maxT int64, page []tsfile.Point) ([]tsfile.Point, bool, error) {
	e.structMu.RLock()
	defer e.structMu.RUnlock()
	if e.closed.Load() {
		return nil, false, ErrClosed
	}
	mem, err := memSnapshot(e, intCol, series, minT, maxT)
	if err != nil {
		return nil, false, err
	}
	if sc.merge == nil || sc.gen != e.gen {
		if err := e.rebuildScan(sc, series, minT, maxT); err != nil {
			return nil, false, err
		}
	}
	sc.merge.Reset(sc.mem, tsfile.NewSliceCursor(mem))
	out, more := sc.merge.Fill(page[:0])
	if err := sc.merge.Err(); err != nil {
		sc.release()
		return nil, false, err
	}
	return out, more, nil
}
