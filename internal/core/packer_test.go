package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPackerConcurrentUnpack decodes different blocks through one shared
// Packer from 8 goroutines and checks every value. Run it under -race: a
// decode scratch shared between Unpack calls corrupts concurrent blocks.
func TestPackerConcurrentUnpack(t *testing.T) {
	const workers, rounds = 8, 40
	p := NewPacker(SeparationBitWidth)
	rng := rand.New(rand.NewSource(21))
	blocks := make([][]int64, workers)
	encoded := make([][]byte, workers)
	for w := range blocks {
		// Outlier-heavy blocks of different lengths, so every decode
		// takes the separated path and fills the mark list.
		blocks[w] = rateSeries(ratePermille[1+w%(len(ratePermille)-1)], rateWidths[w%len(rateWidths)])[:512+rng.Intn(512)]
		encoded[w] = p.Pack(nil, blocks[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []int64
			for r := 0; r < rounds; r++ {
				b := (w + r) % workers
				var err error
				out, _, err = p.Unpack(encoded[b], out[:0])
				if err != nil {
					t.Errorf("worker %d block %d: %v", w, b, err)
					return
				}
				if len(out) != len(blocks[b]) {
					t.Errorf("worker %d block %d: %d values, want %d", w, b, len(out), len(blocks[b]))
					return
				}
				for i, v := range blocks[b] {
					if out[i] != v {
						t.Errorf("worker %d block %d value %d: got %d want %d", w, b, i, out[i], v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
