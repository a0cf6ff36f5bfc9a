package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bos/internal/tsfile"
)

// BenchmarkIngest measures the write path end to end through the public API:
// concurrent writers inserting 100-point batches into per-writer series, with
// the WAL in async and fsync-per-commit modes. Flushes trigger at the default
// threshold, so the numbers include snapshot/encode time. One iteration = one
// inserted batch; points/s is the headline metric.
//
// This file is self-contained so the identical benchmark can be compiled
// against an older engine revision for before/after comparisons
// (EXPERIMENTS.md, "Write-path benchmarks").
func BenchmarkIngest(b *testing.B) {
	for _, syncWAL := range []bool{false, true} {
		for _, writers := range []int{1, 4, 16} {
			name := fmt.Sprintf("sync=%v/writers=%d", syncWAL, writers)
			b.Run(name, func(b *testing.B) { benchIngest(b, syncWAL, writers) })
		}
	}
}

func benchIngest(b *testing.B, syncWAL bool, writers int) {
	e, err := Open(Options{Dir: b.TempDir(), SyncWAL: syncWAL})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	const batch = 100
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := fmt.Sprintf("bench-%02d", w)
			buf := make([]tsfile.Point, batch)
			for {
				n := next.Add(1) - 1
				if n >= int64(b.N) {
					return
				}
				base := n * batch
				for i := range buf {
					t := base + int64(i)
					buf[i] = tsfile.Point{T: t, V: t & 1023}
				}
				if err := e.InsertBatch(series, buf); err != nil {
					b.Error(err)
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() {
		return
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*batch/secs, "points/s")
	}
}
