package tsfile

import (
	"fmt"
	"math"
	"sort"
)

// Iterator streams the points of one series of value kind V in time order,
// loading one chunk at a time: memory use is bounded by the chunk size, not
// the result size, which is what a scan operator inside a query engine
// needs. It is a Cursor; Next and Point read it one point at a time.
type Iterator[V int64 | float64] struct {
	r          *Reader
	series     string
	chunks     []ChunkMeta
	minT, maxT int64
	chunkIdx   int
	times      []int64
	vals       []V
	pos        int
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
	if it.done {
		return false
	}
	for {
		if it.pos < len(it.times) {
			t := it.times[it.pos]
			if t > it.maxT {
				it.done = true
				return false
			}
			it.cur = Sample[V]{T: t, V: it.vals[it.pos]}
			it.pos++
			return true
		}
		// Load the next overlapping chunk.
		for {
			if it.chunkIdx >= len(it.chunks) {
				it.done = true
				return false
			}
			ci := it.chunkIdx
			m := it.chunks[ci]
			it.chunkIdx++
			if m.MaxT < it.minT || m.MinT > it.maxT {
				continue // pruned via footer statistics
			}
			times, vals, err := readChunk[V](it.r, it.series, ci, m)
			if err != nil {
				it.err = err
				it.done = true
				return false
			}
			lo := sort.Search(len(times), func(i int) bool { return times[i] >= it.minT })
			it.times, it.vals = times[lo:], vals[lo:]
			it.pos = 0
			break
		}
	}
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
		if t >= bound || t > it.maxT {
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
