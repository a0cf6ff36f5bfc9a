package tsfile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestReaderConcurrentDecode reads different series through one Reader, and
// so through its one default BOS-B packer, from 8 goroutines and checks
// every point. Beside them, 8 more goroutines open chunks of the same
// uncached Reader for partial reads, which share the pooled read buffers,
// and check every value, and 8 more run sub-range iterators over a Reader
// of the same file whose cache is full and smaller than any chunk, so every
// chunk they read is declined and decoded into pooled buffers too. Run it
// under -race.
func TestReaderConcurrentDecode(t *testing.T) {
	const workers, rounds = 8, 6
	rng := rand.New(rand.NewSource(22))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	want := map[string][]Point{}
	wantChunks := map[string][][]Point{}
	for s := 0; s < workers; s++ {
		series := fmt.Sprintf("root.race.s%d", s)
		start := int64(0)
		for c := 0; c < 3; c++ {
			pts := makePoints(rng, start, 500+rng.Intn(600))
			// Two-sided spikes: every value block separates outliers.
			for i := range pts {
				switch rng.Intn(50) {
				case 0:
					pts[i].V -= 1 << 30
				case 1:
					pts[i].V += 1 << 30
				}
			}
			start = pts[len(pts)-1].T
			if err := w.Append(series, pts); err != nil {
				t.Fatal(err)
			}
			want[series] = append(want[series], pts...)
			wantChunks[series] = append(wantChunks[series], pts)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := fullCache(4 << 10) // chunks hold 500 to 1,099 points: 8 KiB or more
	full.SetCache(cache, 1)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 4*rounds; round++ {
				series := fmt.Sprintf("root.race.s%d", (g+round)%workers)
				if err := checkSubRangeScan(full, series, want[series], rng); err != nil {
					t.Errorf("goroutine %d %s: %v", g, series, err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				series := fmt.Sprintf("root.race.s%d", (g+round)%workers)
				got, err := r.ReadAll(series)
				if err != nil {
					t.Errorf("goroutine %d %s: %v", g, series, err)
					return
				}
				exp := want[series]
				if len(got) != len(exp) {
					t.Errorf("goroutine %d %s: %d points, want %d", g, series, len(got), len(exp))
					return
				}
				for i := range exp {
					if got[i] != exp[i] {
						t.Errorf("goroutine %d %s point %d: got %+v want %+v", g, series, i, got[i], exp[i])
						return
					}
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < rounds; round++ {
				series := fmt.Sprintf("root.race.s%d", (g+round)%workers)
				for ci, pts := range wantChunks[series] {
					if err := checkPartialReads(r, series, ci, pts, rng); err != nil {
						t.Errorf("goroutine %d %s chunk %d: %v", g, series, ci, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := cache.Stats(); st.Declined < workers*4*rounds || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("full cache after the sub-range scans: %+v, want every miss declined and nothing evicted", st)
	}
}

// checkPartialReads opens chunk ci of series twice, reads a random position
// range of it with ValueRange and filters another with FilterValues, checks
// both against pts, and releases each handle.
func checkPartialReads(r *Reader, series string, ci int, pts []Point, rng *rand.Rand) error {
	n := len(pts)
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo+1)
	h, err := r.OpenChunk(series, ci)
	if err != nil {
		return err
	}
	times := h.Times()
	for i, p := range pts {
		if times[i] != p.T {
			return fmt.Errorf("time %d: got %d want %d", i, times[i], p.T)
		}
	}
	vals, _, err := h.ValueRange(lo, hi)
	if err != nil {
		return err
	}
	for i, v := range vals {
		if v != pts[lo+i].V {
			return fmt.Errorf("ValueRange(%d, %d) value %d: got %d want %d", lo, hi, i, v, pts[lo+i].V)
		}
	}
	h.Release()

	if h, err = r.OpenChunk(series, ci); err != nil {
		return err
	}
	defer h.Release()
	minV := pts[rng.Intn(n)].V
	maxV := minV + 1<<20
	var got []Point
	if _, err := h.FilterValues(lo, hi, minV, maxV, func(i int, v int64) {
		got = append(got, Point{T: h.Times()[i], V: v})
	}); err != nil {
		return err
	}
	var exp []Point
	for _, p := range pts[lo:hi] {
		if p.V >= minV && p.V <= maxV {
			exp = append(exp, p)
		}
	}
	if !slices.Equal(got, exp) {
		return fmt.Errorf("FilterValues(%d, %d, %d, %d): %d points, want %d", lo, hi, minV, maxV, len(got), len(exp))
	}
	return nil
}

// checkSubRangeScan iterates a random time range of series, which may start
// and end inside any chunk, a run at a time into a small page, and checks
// the points against pts.
func checkSubRangeScan(r *Reader, series string, pts []Point, rng *rand.Rand) error {
	lo := rng.Intn(len(pts))
	hi := lo + rng.Intn(len(pts)-lo)
	it, err := Iter[int64](r, series, pts[lo].T, pts[hi].T)
	if err != nil {
		return err
	}
	defer it.Release()
	var got []Point
	page := make([]Point, 0, 64)
	for {
		var p Point
		var ok bool
		page, p, ok = it.Run(page[:0], math.MaxInt64)
		got = append(got, page...)
		if !ok {
			break
		}
		got = append(got, p)
	}
	if it.Err() != nil {
		return it.Err()
	}
	if !slices.Equal(got, pts[lo:hi+1]) {
		return fmt.Errorf("Iter over points [%d, %d]: %d points, or a wrong one; want %d", lo, hi, len(got), hi+1-lo)
	}
	return nil
}
