package tsfile

import "math"

// Sample is one (timestamp, value) sample of either value kind. Point and
// FloatPoint are its two instances, so code written once over Sample serves
// integer and float series alike.
type Sample[V int64 | float64] struct {
	T int64
	V V
}

// Cursor is one time-ordered source of samples. Next advances to the next
// sample and reports false at the end of the source or on error; Point
// returns the current sample; Err reports the error that ended the source,
// if any. Timestamps must be strictly increasing within a source.
type Cursor[V int64 | float64] interface {
	Next() bool
	Point() Sample[V]
	Err() error
}

// SliceCursor is a Cursor over an in-memory, time-sorted slice.
type SliceCursor[V int64 | float64] struct {
	pts []Sample[V]
	i   int
}

// NewSliceCursor returns a cursor over pts, which must be sorted by strictly
// increasing timestamp.
func NewSliceCursor[V int64 | float64](pts []Sample[V]) *SliceCursor[V] {
	return &SliceCursor[V]{pts: pts}
}

func (c *SliceCursor[V]) Next() bool {
	c.i++
	return c.i <= len(c.pts)
}

func (c *SliceCursor[V]) Point() Sample[V] { return c.pts[c.i-1] }

func (c *SliceCursor[V]) Err() error { return nil }

// Merge is the single newest-wins rule of every read: a k-way merge of
// time-ordered sources given oldest to newest. It emits the smallest
// timestamp first. When several sources hold the same timestamp, the newest
// source's sample wins and the others skip past it. Sources that run out
// leave the candidate set, and the first source error ends the merge.
//
// While one source stays strictly below every other source's head, Next
// emits from it without looking at the others, so a merge of sources with
// disjoint time ranges costs O(1) per sample rather than O(sources).
type Merge[V int64 | float64] struct {
	srcs  []Cursor[V]
	heads []Sample[V]
	live  []int // sources holding a head, in no particular order
	cur   Sample[V]
	err   error
	// lead is the source cur came from, not yet advanced past it (-1 when
	// none). bound is the smallest head among the other live sources, or
	// math.MinInt64 when it must be recomputed.
	lead  int
	bound int64
}

// NewMerge returns a merge of srcs, oldest first, positioned before its
// first sample. It reads the first sample of every source.
func NewMerge[V int64 | float64](srcs ...Cursor[V]) *Merge[V] {
	m := &Merge[V]{srcs: srcs, heads: make([]Sample[V], len(srcs)), lead: -1, bound: math.MinInt64}
	for i := range srcs {
		if m.err == nil && m.advance(i) {
			m.live = append(m.live, i)
		}
	}
	return m
}

// Next advances to the next merged sample.
func (m *Merge[V]) Next() bool {
	if m.err != nil {
		return false
	}
	if i := m.lead; i >= 0 {
		m.lead = -1
		if !m.advance(i) {
			if m.err != nil {
				return false
			}
			m.drop(i)
		} else if m.heads[i].T < m.bound {
			m.cur, m.lead = m.heads[i], i
			return true
		}
	}
	return m.pick()
}

// pick selects the smallest head across the live sources, newest source
// first on a tie, and sets the bound. Sources that lost a tie are advanced
// past the emitted timestamp; only then is a second pass needed.
func (m *Merge[V]) pick() bool {
	// second is the smallest head outside the tie for the minimum: when
	// the minimum drops, the old minimum is that.
	best, bestT, second, tie := -1, int64(math.MaxInt64), int64(math.MaxInt64), false
	for _, i := range m.live {
		switch t := m.heads[i].T; {
		case best < 0 || t < bestT:
			best, bestT, second, tie = i, t, bestT, false
		case t == bestT:
			best, tie = max(best, i), true
		default:
			second = min(second, t)
		}
	}
	if best < 0 {
		return false
	}
	m.cur, m.lead, m.bound = m.heads[best], best, second
	if !tie {
		return true
	}
	n := 0
	for _, i := range m.live {
		if i != best && m.heads[i].T == bestT {
			if !m.advance(i) {
				if m.err != nil {
					return false
				}
				continue // exhausted: leaves the candidate set
			}
			m.bound = min(m.bound, m.heads[i].T)
		}
		m.live[n] = i
		n++
	}
	m.live = m.live[:n]
	return true
}

// advance moves source i to its next sample, recording a source error.
func (m *Merge[V]) advance(i int) bool {
	if m.srcs[i].Next() {
		m.heads[i] = m.srcs[i].Point()
		return true
	}
	m.err = m.srcs[i].Err()
	return false
}

// drop removes source i from the candidate set.
func (m *Merge[V]) drop(i int) {
	for k, j := range m.live {
		if j == i {
			m.live[k] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			return
		}
	}
}

// Point returns the current merged sample after a successful Next.
func (m *Merge[V]) Point() Sample[V] { return m.cur }

// Err reports the source error that ended the merge, if any.
func (m *Merge[V]) Err() error { return m.err }

// Reset replaces source i with c, keeping its place in the newest-wins
// order; the other sources keep their positions. c must hold only
// timestamps after the last sample emitted. A paged scan uses it to swap in
// a fresh memtable snapshot for each page.
func (m *Merge[V]) Reset(i int, c Cursor[V]) {
	m.srcs[i] = c
	m.drop(i)
	if m.lead == i {
		m.lead = -1
	}
	m.bound = math.MinInt64
	if m.err == nil && m.advance(i) {
		m.live = append(m.live, i)
	}
}
