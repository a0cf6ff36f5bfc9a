package tsfile

import (
	"fmt"
	"sort"
)

// Iterator streams the points of one series of value kind V in time order,
// loading one chunk at a time: memory use is bounded by the chunk size, not
// the result size, which is what a scan operator inside a query engine
// needs. It is a Cursor.
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

// Point returns the current point after a successful Next.
func (it *Iterator[V]) Point() Sample[V] { return it.cur }

// Err reports the first error the scan hit, if any.
func (it *Iterator[V]) Err() error { return it.err }
