package tsfile

import (
	"errors"
	"sort"
	"testing"
)

// mergeCase is one decoded FuzzMerge input: k sorted sources over a small
// timestamp domain, so sources share many timestamps, plus an optional
// mid-merge Reset of one source and the page capacities the merge is drained
// with.
type mergeCase struct {
	srcs  [][]int64 // per source, strictly increasing timestamps
	repl  []int64   // the Reset source's replacement timestamps
	cut   int       // samples emitted before the Reset (-1: no Reset)
	reset int       // index of the source Reset replaces
	pages int       // offset of the first page's capacity in pageCaps
}

// pageCaps are the capacities of successive Fill pages, starting at
// mergeCase.pages and wrapping: single samples, a few, and more than any
// case holds.
var pageCaps = []int{1, 2, 3, 5, 512}

func decodeMergeCase(data []byte) mergeCase {
	var c mergeCase
	if len(data) < 3 {
		return mergeCase{srcs: [][]int64{nil}, cut: -1}
	}
	k := 1 + int(data[0])%6
	c.pages = int(data[0]) / 6
	c.srcs = make([][]int64, k)
	c.cut = int(data[1])
	if c.cut == 255 {
		c.cut = -1
	}
	c.reset = int(data[2]) % k
	sets := make([]map[int64]bool, k+1)
	for i := range sets {
		sets[i] = map[int64]bool{}
	}
	for p := 3; p+1 < len(data); p += 2 {
		a, t := data[p], int64(data[p+1])
		if a&0x80 != 0 {
			sets[k][t] = true // the replacement cursor
		} else {
			sets[int(a)%k][t] = true
		}
	}
	sorted := func(set map[int64]bool) []int64 {
		out := make([]int64, 0, len(set))
		for t := range set {
			out = append(out, t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for i := 0; i < k; i++ {
		c.srcs[i] = sorted(sets[i])
	}
	c.repl = sorted(sets[k])
	return c
}

// valueOf tags a sample with its source, so the oracle can tell which
// source won a shared timestamp.
func valueOf(src int, t int64) int64 { return int64(src+1)*1000 + t }

// newestWins is the oracle: a map from timestamp to the newest source's
// value, over the given sources (index = age, oldest first), keeping only
// timestamps after `after`.
func newestWins(srcs [][]int64, tag []int, after int64) []Sample[int64] {
	m := map[int64]int64{}
	for i, ts := range srcs {
		for _, t := range ts {
			if t > after {
				m[t] = valueOf(tag[i], t)
			}
		}
	}
	out := make([]Sample[int64], 0, len(m))
	for t, v := range m {
		out = append(out, Sample[int64]{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func cursorOf[V int64 | float64](ts []int64, tag int, after int64) Cursor[V] {
	pts := []Sample[V]{}
	for _, t := range ts {
		if t > after {
			pts = append(pts, Sample[V]{T: t, V: V(valueOf(tag, t))})
		}
	}
	return NewSliceCursor(pts)
}

// checkMerge runs one case through Merge[V], drained by Fill in pages of
// the case's capacities, and compares with the oracle. A Reset happens at
// the end of the page that brings the output to the case's cut.
func checkMerge[V int64 | float64](t *testing.T, c mergeCase) {
	t.Helper()
	k := len(c.srcs)
	tags := make([]int, k)
	srcs := make([]Cursor[V], k)
	for i := range srcs {
		tags[i] = i
		srcs[i] = cursorOf[V](c.srcs[i], i, -1)
	}
	m := NewMerge(srcs...)
	full := newestWins(c.srcs, tags, -1)
	var got []Sample[int64]
	pageNo, lastMore := c.pages, false
	// fill drains one page of at most limit samples (no limit when < 0)
	// and reports whether the merge said samples remain.
	fill := func(limit int) bool {
		n := pageCaps[pageNo%len(pageCaps)]
		pageNo++
		if limit >= 0 {
			n = min(n, limit)
		}
		page, more := m.Fill(make([]Sample[V], 0, n))
		if more && len(page) < n {
			t.Fatalf("page of %d/%d samples reports more", len(page), n)
		}
		if lastMore && len(page) == 0 {
			t.Fatalf("empty page after a page that reported more")
		}
		lastMore = more
		for _, p := range page {
			got = append(got, Sample[int64]{T: p.T, V: int64(p.V)})
		}
		return more
	}
	want := full
	if c.cut >= 0 {
		for len(got) < c.cut && fill(c.cut-len(got)) {
		}
		last := int64(-1)
		if len(got) > 0 {
			last = got[len(got)-1].T
		}
		// After the Reset, source c.reset holds the replacement (tagged as
		// source k) and every other source its samples past last.
		after := append([][]int64(nil), c.srcs...)
		after[c.reset] = c.repl
		tags[c.reset] = k
		m.Reset(c.reset, cursorOf[V](c.repl, k, last))
		lastMore = false
		want = append(append([]Sample[int64](nil), got...), newestWins(after, tags, last)...)
	}
	for fill(-1) {
	}
	if err := m.Err(); err != nil {
		t.Fatalf("merge error: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzMerge checks Merge against a newest-wins map over random sorted
// sources with shared timestamps, with and without a mid-merge Reset, for
// both value kinds, draining it through Fill with page capacities the input
// picks.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{2, 255, 0, 0, 1, 1, 1, 0, 2, 1, 2})
	f.Add([]byte{3, 2, 1, 0, 5, 1, 5, 2, 5, 0x80, 9, 0x81, 3, 1, 7})
	f.Add([]byte{5, 0, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0x80, 0, 0x80, 6})
	f.Add([]byte{1, 3, 0, 0, 10, 0, 11, 0, 12, 0x80, 11, 0x80, 13})
	f.Add([]byte{6, 40, 2, 0, 1, 7, 1, 13, 1, 3, 200, 4, 100, 5, 100, 0x85, 150})
	// Large pages: the older source's run stops below the newer source's
	// head, which holds the same timestamp as the run's next sample.
	f.Add([]byte{25, 255, 0, 0, 1, 0, 2, 0, 5, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMergeCase(data)
		checkMerge[int64](t, c)
		checkMerge[float64](t, c)
	})
}

// failingCursor yields the samples 1..n and then fails.
type failingCursor struct {
	n, i int // i: samples handed out so far
	err  error
}

func (c *failingCursor) Run(dst []Sample[int64], bound int64) ([]Sample[int64], Sample[int64], bool) {
	for c.i < c.n && len(dst) < cap(dst) && int64(c.i+1) < bound {
		c.i++
		dst = append(dst, Sample[int64]{T: int64(c.i)})
	}
	c.i++
	if c.i > c.n {
		return dst, Sample[int64]{}, false
	}
	return dst, Sample[int64]{T: int64(c.i)}, true
}

func (c *failingCursor) Release() {}

func (c *failingCursor) Err() error {
	if c.i > c.n {
		return c.err
	}
	return nil
}

// TestMergeStopsOnSourceError drains merges whose newest source fails, with
// small and large pages: once after a tie, once partway through a run that
// another source's head does not bound. The merge emits the samples before
// the failure and then reports the source error.
func TestMergeStopsOnSourceError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		other []Sample[int64]
		n     int
	}{
		{"after a tie", []Sample[int64]{{T: 1}, {T: 10}}, 3},
		{"mid-run", []Sample[int64]{{T: 100}}, 5},
	} {
		for _, pageCap := range []int{2, 512} {
			m := NewMerge[int64](NewSliceCursor(tc.other), &failingCursor{n: tc.n, err: boom})
			var n int
			for more := true; more; {
				var page []Sample[int64]
				page, more = m.Fill(make([]Sample[int64], 0, pageCap))
				n += len(page)
			}
			if !errors.Is(m.Err(), boom) || n != tc.n {
				t.Fatalf("%s, pages of %d: emitted %d samples, err %v; want %d and the source error",
					tc.name, pageCap, n, m.Err(), tc.n)
			}
		}
	}
}
