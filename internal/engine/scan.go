package engine

import (
	"math"
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
// engine read reaches a data file. prime positions it on its first point
// ahead of the merge, so a scan can decode every file's first chunk in
// parallel.
type fileCursor[V int64 | float64] struct {
	it     *tsfile.Iterator[V]
	series string
	seq    int
	tombs  tombstones
	primed bool // the iterator already sits on the next point
}

// fileCursors opens a cursor over the series in [minT, maxT] on every file
// that holds it, oldest first, with room for one more source. A file without
// the series is skipped from its footer index.
func fileCursors[V int64 | float64](files []*dataFile, tombs tombstones, series string, minT, maxT int64) ([]tsfile.Cursor[V], error) {
	srcs := make([]tsfile.Cursor[V], 0, len(files)+1)
	for _, df := range files {
		if found, _ := df.reader.ValueKind(series); !found {
			continue
		}
		it, err := tsfile.Iter[V](df.reader, series, minT, maxT)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, &fileCursor[V]{it: it, series: series, seq: df.seq, tombs: tombs})
	}
	return srcs, nil
}

func (c *fileCursor[V]) prime() { c.primed = c.Next() }

func (c *fileCursor[V]) Next() bool {
	if c.primed {
		c.primed = false
		return true
	}
	for c.it.Next() {
		if !c.tombs.hide(c.series, c.seq, c.it.Point().T) {
			return true
		}
	}
	return false
}

func (c *fileCursor[V]) Point() tsfile.Sample[V] { return c.it.Point() }

func (c *fileCursor[V]) Err() error { return c.it.Err() }

// scanState carries one QueryEach call's merge across pages: the file
// cursors persist, and each page swaps a fresh memtable snapshot in as the
// newest source. merge is nil until the first build and after any error; gen
// is compared against the engine generation each page.
type scanState struct {
	gen   uint64
	merge *tsfile.Merge[int64]
	mem   int // the memtable's source index in merge
}

// rebuildScan (re)creates the per-file cursors starting at minT, oldest file
// first, with the memtable as the newest source. Each cursor decodes its
// first chunk on its own goroutine, because that is where a cold scan pays
// its largest serial decode cost. Caller holds structMu (read suffices: the
// file list and generation are stable while held).
func (e *Engine) rebuildScan(sc *scanState, series string, minT, maxT int64) error {
	sc.merge = nil
	srcs, err := fileCursors[int64](e.files, e.tombs, series, minT, maxT)
	if err != nil {
		return err
	}
	fanOut(len(srcs), len(srcs), func(i int) { srcs[i].(*fileCursor[int64]).prime() })
	sc.mem = len(srcs)
	sc.merge = tsfile.NewMerge(append(srcs, tsfile.NewSliceCursor[int64](nil))...)
	sc.gen = e.gen
	return nil
}

// scanPage collects merged points starting at minT into page, up to its
// capacity. more reports whether the merge was cut short by the capacity
// (points past the last one may remain). The memtable is re-snapshotted every
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
	out := page[:0]
	for len(out) < cap(out) && sc.merge.Next() {
		out = append(out, sc.merge.Point())
	}
	if err := sc.merge.Err(); err != nil {
		sc.merge = nil
		return nil, false, err
	}
	return out, len(out) == cap(out), nil
}
