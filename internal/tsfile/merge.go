package tsfile

import "math"

// Sample is one (timestamp, value) sample of either value kind. Point and
// FloatPoint are its two instances, so code written once over Sample serves
// integer and float series alike.
type Sample[V int64 | float64] struct {
	T int64
	V V
}

// Cursor is one time-ordered source of samples, read a run at a time.
// Timestamps must be strictly increasing within a source.
//
// Run appends to dst the samples after the cursor's current one whose
// timestamps lie below bound, stopping when dst is full; it may end a run
// sooner, as an Iterator does at the end of a chunk. It then moves to the
// first sample it did not append, makes that the current one and returns
// it; ok is false at the end of the source or on error. A new cursor sits
// before its first sample, so Run(nil, bound) steps to the next sample
// whatever the bound, and a source whose next sample is at or above the
// bound costs exactly that one call. Err reports the error that ended the
// source, if any. Release returns what the cursor holds for reading, such as
// an Iterator's pooled chunk buffers; the cursor must not be read after it,
// and the samples it handed out stay valid, since Run copies them.
type Cursor[V int64 | float64] interface {
	Run(dst []Sample[V], bound int64) (out []Sample[V], next Sample[V], ok bool)
	Err() error
	Release()
}

// SliceCursor is a Cursor over an in-memory, time-sorted slice.
type SliceCursor[V int64 | float64] struct {
	pts []Sample[V]
	i   int // index of the first sample not yet handed out
}

// NewSliceCursor returns a cursor over pts, which must be sorted by strictly
// increasing timestamp.
func NewSliceCursor[V int64 | float64](pts []Sample[V]) *SliceCursor[V] {
	return &SliceCursor[V]{pts: pts}
}

func (c *SliceCursor[V]) Run(dst []Sample[V], bound int64) ([]Sample[V], Sample[V], bool) {
	rest := c.pts[c.i:]
	rest = rest[:min(len(rest), cap(dst)-len(dst))]
	k := 0
	for k < len(rest) && rest[k].T < bound {
		k++
	}
	dst = append(dst, rest[:k]...)
	c.i += k
	if c.i == len(c.pts) {
		return dst, Sample[V]{}, false
	}
	c.i++
	return dst, c.pts[c.i-1], true
}

func (c *SliceCursor[V]) Err() error { return nil }

// Release does nothing: the slice is the caller's.
func (c *SliceCursor[V]) Release() {}

// Merge is the single newest-wins rule of every read: a k-way merge of
// time-ordered sources given oldest to newest. It emits the smallest
// timestamp first. When several sources hold the same timestamp, the newest
// source's sample wins and the others skip past it. Sources that run out
// leave the candidate set, and the first source error ends the merge.
//
// While one source stays strictly below every other source's head, Fill
// copies that source's whole run below the next head in one Cursor.Run call
// without looking at the others, so a merge of sources with disjoint time
// ranges costs O(1) calls per run rather than O(sources) per sample. Only
// where sources overlap does it pick sample by sample.
type Merge[V int64 | float64] struct {
	srcs  []Cursor[V]
	heads []Sample[V] // each live source's current sample, not yet emitted
	live  []int       // sources holding a head, in no particular order
	err   error
	// lead is the source whose head lies strictly below every other live
	// head (-1 when not known), and bound is the smallest of those others
	// (math.MaxInt64 when lead is alone).
	lead  int
	bound int64
}

// NewMerge returns a merge of srcs, oldest first, positioned before its
// first sample. It reads the first sample of every source.
func NewMerge[V int64 | float64](srcs ...Cursor[V]) *Merge[V] {
	m := &Merge[V]{srcs: srcs, heads: make([]Sample[V], len(srcs)), lead: -1}
	for i := range srcs {
		if m.err == nil && m.advance(i) {
			m.live = append(m.live, i)
		}
	}
	return m
}

// Fill appends merged samples to page until it reaches its capacity, and
// returns it and whether samples remain. It stops short of the capacity only
// when the merge has ended: every source ran out, or one failed (check Err).
func (m *Merge[V]) Fill(page []Sample[V]) ([]Sample[V], bool) {
	for len(page) < cap(page) {
		i := m.lead
		if i < 0 {
			if i = m.pick(); i < 0 {
				return page, false
			}
		}
		// heads[i] is below every other head: emit it and the run behind
		// it that stays below them.
		page = append(page, m.heads[i])
		var ok bool
		page, m.heads[i], ok = m.srcs[i].Run(page, m.bound)
		switch {
		case !ok:
			m.lead = -1
			if m.err = m.srcs[i].Err(); m.err != nil {
				return page, false
			}
			m.drop(i)
		case m.heads[i].T >= m.bound:
			m.lead = -1
		}
	}
	// Every live source holds a head that is still to be emitted.
	return page, len(m.live) > 0
}

// pick makes the source holding the smallest head the lead, newest source
// first on a tie, and sets the bound. Sources that lost a tie are advanced
// past the tied timestamp; only then is a second pass needed. It returns the
// lead, or -1 when no source is left or one failed.
func (m *Merge[V]) pick() int {
	if m.err != nil {
		return -1
	}
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
		return -1
	}
	m.lead, m.bound = best, second
	if !tie {
		return best
	}
	n := 0
	for _, i := range m.live {
		if i != best && m.heads[i].T == bestT {
			if !m.advance(i) {
				if m.err != nil {
					m.lead = -1
					return -1
				}
				continue // exhausted: leaves the candidate set
			}
			m.bound = min(m.bound, m.heads[i].T)
		}
		m.live[n] = i
		n++
	}
	m.live = m.live[:n]
	return best
}

// advance moves source i to its next sample, recording a source error.
func (m *Merge[V]) advance(i int) bool {
	var ok bool
	if _, m.heads[i], ok = m.srcs[i].Run(nil, math.MinInt64); !ok {
		m.err = m.srcs[i].Err()
	}
	return ok
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

// Err reports the source error that ended the merge, if any.
func (m *Merge[V]) Err() error { return m.err }

// Release releases every source (Cursor.Release). The merge yields nothing
// after it; the samples Fill copied out stay valid.
func (m *Merge[V]) Release() {
	for _, c := range m.srcs {
		c.Release()
	}
	m.live, m.lead = m.live[:0], -1
}

// Reset replaces source i with c, keeping its place in the newest-wins
// order, and does not release the source it replaces; the other sources
// keep their positions. c must hold only timestamps after the last sample
// emitted. A paged scan uses it to swap in a fresh memtable snapshot for
// each page.
func (m *Merge[V]) Reset(i int, c Cursor[V]) {
	m.srcs[i] = c
	m.drop(i)
	m.lead = -1
	if m.err == nil && m.advance(i) {
		m.live = append(m.live, i)
	}
}
