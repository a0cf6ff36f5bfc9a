package tsfile

import (
	"fmt"
	"math"
)

// Iterator streams the points of one series of value kind V in time order,
// loading one chunk at a time: memory use is bounded by the chunk size, not
// the result size, which is what a scan operator inside a query engine
// needs. It is a Cursor; Next and Point read it one point at a time.
//
// A chunk the cache does not serve or admit is read into pooled buffers,
// decoding only the value blocks [minT, maxT] needs (readChunk). The
// iterator returns them when it moves to the next chunk, when it ends (past
// maxT, after the last chunk, or on error) and when Release is called.
type Iterator[V int64 | float64] struct {
	r          *Reader
	series     string
	chunks     []ChunkMeta
	minT, maxT int64
	chunkIdx   int
	times      []int64 // the current chunk's samples in [minT, maxT]
	vals       []V
	pos        int
	past       bool        // the current chunk holds a timestamp after maxT
	h          ChunkHandle // the current chunk's pooled read, when bufs is set
	cur        Sample[V]
	err        error
	done       bool
}

// Iter returns an iterator over the points of series with minT <= T <= maxT.
// A chunk of the other value kind ends the scan with ErrKindMismatch.
func Iter[V int64 | float64](r *Reader, series string, minT, maxT int64) (*Iterator[V], error) {
	chunks, ok := r.index[series]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	return &Iterator[V]{r: r, series: series, chunks: chunks, minT: minT, maxT: maxT}, nil
}

// Overlaps reports whether a chunk of series in r overlaps [minT, maxT]. It
// reads only the footer index and builds no error, so a scan can test every
// file and open an Iterator only where it is true.
func (r *Reader) Overlaps(series string, minT, maxT int64) bool {
	for _, m := range r.index[series] {
		if m.MaxT >= minT && m.MinT <= maxT {
			return true
		}
	}
	return false
}

// Estimate returns about how many points of series r holds in [minT, maxT]:
// each overlapping chunk's count scaled by the share of its time span the
// range covers, rounded up, so evenly spaced points are not undercounted.
// Like Overlaps it reads only the footer index, whose counts are not checked
// until a chunk is decoded: a caller sizing an allocation from the estimate
// bounds it.
func (r *Reader) Estimate(series string, minT, maxT int64) int {
	n := 0.0
	for _, m := range r.index[series] {
		lo, hi := max(m.MinT, minT), min(m.MaxT, maxT)
		if lo > hi || m.Count <= 0 {
			continue
		}
		share := (float64(uint64(hi-lo)) + 1) / (float64(uint64(m.MaxT-m.MinT)) + 1)
		n += math.Ceil(share * float64(m.Count))
	}
	return int(min(n, math.MaxInt32))
}

// Next advances to the next point; it returns false at the end of the scan
// or on error (check Err).
func (it *Iterator[V]) Next() bool {
	for !it.done {
		if it.pos < len(it.times) {
			it.cur = Sample[V]{T: it.times[it.pos], V: it.vals[it.pos]}
			it.pos++
			return true
		}
		it.load()
	}
	return false
}

// load leaves the current chunk, returning its buffers, and reads the next
// chunk that holds samples in [minT, maxT]. It ends the scan when the
// current chunk reached past maxT, after the last chunk, and on error.
func (it *Iterator[V]) load() {
	for {
		it.leave()
		if it.past || it.chunkIdx >= len(it.chunks) {
			it.done = true
			return
		}
		ci := it.chunkIdx
		m := it.chunks[ci]
		it.chunkIdx++
		if m.MaxT < it.minT || m.MinT > it.maxT {
			continue // pruned via footer statistics
		}
		var err error
		if it.times, it.vals, it.past, err = readChunk[V](it.r, it.series, ci, m, it.minT, it.maxT, &it.h); err != nil {
			it.err = err
			it.Release()
			return
		}
		if len(it.times) > 0 {
			return
		}
	}
}

// leave drops the current chunk's columns and returns its pooled buffers.
func (it *Iterator[V]) leave() {
	it.h.Release()
	it.times, it.vals, it.pos = nil, nil, 0
}

// Release ends the scan and returns the pooled buffers of the chunk it is
// reading, if any. The iterator yields nothing after it; the samples it
// handed out are copies and stay valid. A second Release does nothing.
func (it *Iterator[V]) Release() {
	it.leave()
	it.done = true
}

// Run appends to dst the points after the current one that lie below bound,
// as long as dst has spare capacity, then moves to the next point and
// returns it (Cursor). A run stays inside the current chunk and [minT,
// maxT]: a chunk's last point ends it, and the next chunk loads only when
// Run moves to its first point.
func (it *Iterator[V]) Run(dst []Sample[V], bound int64) ([]Sample[V], Sample[V], bool) {
	if it.done {
		return dst, Sample[V]{}, false
	}
	times, vals := it.times[it.pos:], it.vals[it.pos:]
	room := dst[len(dst):cap(dst)]
	n := min(len(times), len(vals), len(room))
	k := 0
	for ; k < n; k++ {
		t := times[k]
		if t >= bound {
			break
		}
		room[k] = Sample[V]{T: t, V: vals[k]}
	}
	it.pos += k
	dst = dst[:len(dst)+k]
	if !it.Next() {
		return dst, Sample[V]{}, false
	}
	return dst, it.cur, true
}

// Point returns the current point after a successful Next.
func (it *Iterator[V]) Point() Sample[V] { return it.cur }

// Err reports the first error the scan hit, if any.
func (it *Iterator[V]) Err() error { return it.err }
