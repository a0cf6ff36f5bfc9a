package tsfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestReaderConcurrentDecode reads different series through one Reader, and
// so through its one default BOS-B packer, from 8 goroutines and checks
// every point. Beside them, 8 more goroutines open chunks of the same
// uncached Reader for partial reads, which share the pooled read buffers,
// and check every value. Run it under -race.
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
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
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
