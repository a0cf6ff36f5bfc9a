package engine

import (
	"errors"
	"sort"
	"testing"

	"bos/internal/tsfile"
)

// TestScansEndedEarlyOrRebuilt drives scans whose file cursors hold pooled
// chunk buffers (the 8 KiB cache declines every chunk of 10,000 points) and
// end or change mid-way: a QueryEach its callback aborts in the middle of a
// chunk, a scan across a flush, which rebuilds its cursors, and a scan
// across a compaction. Each returns the right points, and so does every
// later scan, whose several file cursors would share a buffer released
// twice. Run it under -race.
func TestScansEndedEarlyOrRebuilt(t *testing.T) {
	e := openTest(t, Options{Dir: t.TempDir(), FlushThreshold: 1 << 30, CacheBytes: 8 << 10})
	defer e.Close()
	want := map[int64]int64{}
	write := func(from, n int, v int64) {
		pts := make([]tsfile.Point, n)
		for i := range pts {
			pts[i] = tsfile.Point{T: int64(from + i), V: v*1_000_000 + int64(i%977)}
			want[pts[i].T] = pts[i].V
		}
		flushSeries(t, e, "s", pts...)
	}
	expect := func() []tsfile.Point {
		out := make([]tsfile.Point, 0, len(want))
		for ts, v := range want {
			out = append(out, tsfile.Point{T: ts, V: v})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
		return out
	}
	later := func(stage string) {
		t.Helper()
		all := expect()
		for i := 0; i < 3; i++ {
			samePoints(t, collectEach(t, e, "s", -1<<40, 1<<40), all)
		}
		samePoints(t, collectEach(t, e, "s", 7000, 16999), all[7000:17000])
		pts, err := e.Query("s", 3000, 20999)
		if err != nil {
			t.Fatalf("%s: Query: %v", stage, err)
		}
		samePoints(t, pts, all[3000:21000])
		if st := e.Stats().Cache; st.Declined == 0 || st.Entries != 0 {
			t.Fatalf("%s: cache %+v, want every chunk declined", stage, st)
		}
	}
	write(0, 10000, 1)
	write(5000, 10000, 2)
	write(12000, 10000, 3)
	later("before")

	errStop := errors.New("stop")
	var got []tsfile.Point
	err := e.QueryEach("s", -1<<40, 1<<40, func(p tsfile.Point) error {
		got = append(got, p)
		if len(got) == 5000 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("aborted scan returned %v, want the callback's error", err)
	}
	samePoints(t, got, expect()[:5000])
	later("after an aborted scan")

	// A flush after the first page overwrites points past the scan's
	// cursor: the next page rebuilds the cursors and reads the new values.
	got = got[:0]
	err = e.QueryEach("s", -1<<40, 1<<40, func(p tsfile.Point) error {
		got = append(got, p)
		if len(got) == scanPageSize {
			write(15000, 3000, 4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, expect())
	later("after a scan across a flush")

	got = got[:0]
	err = e.QueryEach("s", -1<<40, 1<<40, func(p tsfile.Point) error {
		got = append(got, p)
		if len(got) == 2*scanPageSize {
			if err := e.Compact(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, expect())
	if st := e.Stats(); st.Files != 1 {
		t.Fatalf("%d files after the compaction, want 1", st.Files)
	}
	later("after a scan across a compaction")
}
