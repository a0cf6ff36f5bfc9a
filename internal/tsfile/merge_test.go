package tsfile

import (
	"errors"
	"sort"
	"testing"
)

// mergeCase is one decoded FuzzMerge input: k sorted sources over a small
// timestamp domain, so sources share many timestamps, plus an optional
// mid-merge Reset of one source.
type mergeCase struct {
	srcs  [][]int64 // per source, strictly increasing timestamps
	repl  []int64   // the Reset source's replacement timestamps
	cut   int       // samples emitted before the Reset (-1: no Reset)
	reset int       // index of the source Reset replaces
}

func decodeMergeCase(data []byte) mergeCase {
	var c mergeCase
	if len(data) < 3 {
		return mergeCase{srcs: [][]int64{nil}, cut: -1}
	}
	k := 1 + int(data[0])%6
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

// checkMerge runs one case through Merge[V] and compares with the oracle.
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
	emit := func() bool {
		if !m.Next() {
			return false
		}
		p := m.Point()
		got = append(got, Sample[int64]{T: p.T, V: int64(p.V)})
		return true
	}
	want := full
	if c.cut >= 0 {
		for len(got) < c.cut && emit() {
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
		want = append(append([]Sample[int64](nil), got...), newestWins(after, tags, last)...)
	}
	for emit() {
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
// both value kinds.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{2, 255, 0, 0, 1, 1, 1, 0, 2, 1, 2})
	f.Add([]byte{3, 2, 1, 0, 5, 1, 5, 2, 5, 0x80, 9, 0x81, 3, 1, 7})
	f.Add([]byte{5, 0, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0x80, 0, 0x80, 6})
	f.Add([]byte{1, 3, 0, 0, 10, 0, 11, 0, 12, 0x80, 11, 0x80, 13})
	f.Add([]byte{6, 40, 2, 0, 1, 7, 1, 13, 1, 3, 200, 4, 100, 5, 100, 0x85, 150})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMergeCase(data)
		checkMerge[int64](t, c)
		checkMerge[float64](t, c)
	})
}

// failingCursor yields n samples and then fails.
type failingCursor struct {
	n, i int
	err  error
}

func (c *failingCursor) Next() bool {
	c.i++
	return c.i <= c.n
}
func (c *failingCursor) Point() Sample[int64] { return Sample[int64]{T: int64(c.i)} }
func (c *failingCursor) Err() error {
	if c.i > c.n {
		return c.err
	}
	return nil
}

func TestMergeStopsOnSourceError(t *testing.T) {
	boom := errors.New("boom")
	m := NewMerge[int64](
		NewSliceCursor([]Sample[int64]{{T: 1}, {T: 10}}),
		&failingCursor{n: 3, err: boom},
	)
	var n int
	for m.Next() {
		n++
	}
	if !errors.Is(m.Err(), boom) || n != 3 {
		t.Fatalf("emitted %d samples, err %v; want 3 and the source error", n, m.Err())
	}
}
