package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Outlier-rate sweep for the block codec hot paths. The decode cost of a BOS
// block is dominated by the interleaving the bitmap creates: the average
// center run is ~1/rate values, so higher outlier rates mean shorter runs and
// more per-run entry cost. EXPERIMENTS.md, "Run-fused block decode", records
// this sweep before and after the run-fused decode path.

// rateWidths are the inlier bit-widths the sweep covers (beta after
// frame-of-reference).
var rateWidths = []uint{4, 8, 16}

// ratePermille are the outlier rates in permille: 0%, 0.1%, 1%, 5%, 20%.
var ratePermille = []int{0, 1, 10, 50, 200}

// rateSeries builds a 1024-value series whose plan has inlier width ~beta and
// the given outlier rate (half lower, half upper outliers).
func rateSeries(rate int, beta uint) []int64 {
	rng := rand.New(rand.NewSource(int64(rate)*1000 + int64(beta)))
	vals := make([]int64, 1024)
	for i := range vals {
		r := rng.Intn(1000)
		switch {
		case r < rate/2: // lower outlier, far below the center band
			vals[i] = -(1 << 40) - rng.Int63n(1<<20)
		case r < rate: // upper outlier, far above
			vals[i] = (1 << 40) + rng.Int63n(1<<20)
		default: // center band
			vals[i] = rng.Int63n(1 << beta)
		}
	}
	return vals
}

func rateName(rate int) string {
	if rate%10 == 0 {
		return fmt.Sprintf("r%d%%", rate/10)
	}
	return fmt.Sprintf("r0.%d%%", rate%10)
}

func BenchmarkDecodeBlock(b *testing.B) {
	for _, rate := range ratePermille {
		for _, beta := range rateWidths {
			b.Run(fmt.Sprintf("%s/w%02d", rateName(rate), beta), func(b *testing.B) {
				vals := rateSeries(rate, beta)
				enc := EncodeBlock(nil, vals, SeparationBitWidth)
				out := make([]int64, 0, len(vals))
				var sc Scratch
				b.ReportAllocs()
				b.SetBytes(int64(len(vals)) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					out, _, err = DecodeBlockScratch(enc, out[:0], &sc)
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	for _, rate := range ratePermille {
		for _, beta := range rateWidths {
			b.Run(fmt.Sprintf("%s/w%02d", rateName(rate), beta), func(b *testing.B) {
				vals := rateSeries(rate, beta)
				plan := PlanFor(vals, SeparationBitWidth)
				var buf []byte
				b.ReportAllocs()
				b.SetBytes(int64(len(vals)) * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = EncodeBlockPlan(buf[:0], vals, &plan)
				}
			})
		}
	}
}

// TestDecodeBlockZeroAllocs pins the steady-state decode alloc contract: with
// a reused scratch and a pre-sized output slice, block decode performs no
// heap allocation at any outlier rate.
func TestDecodeBlockZeroAllocs(t *testing.T) {
	for _, rate := range ratePermille {
		for _, beta := range rateWidths {
			vals := rateSeries(rate, beta)
			enc := EncodeBlock(nil, vals, SeparationBitWidth)
			out := make([]int64, 0, len(vals))
			var sc Scratch
			// Warm the scratch (first call may grow the mark list).
			if _, _, err := DecodeBlockScratch(enc, out[:0], &sc); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				var err error
				out, _, err = DecodeBlockScratch(enc, out[:0], &sc)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("rate %d beta %d: %v allocs/op, want 0", rate, beta, allocs)
			}
		}
	}
}
