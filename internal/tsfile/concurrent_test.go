package tsfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestReaderConcurrentDecode reads different series through one Reader, and
// so through its one default BOS-B packer, from 8 goroutines and checks
// every point. Run it under -race.
func TestReaderConcurrentDecode(t *testing.T) {
	const workers, rounds = 8, 6
	rng := rand.New(rand.NewSource(22))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	want := map[string][]Point{}
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
	}
	wg.Wait()
}
