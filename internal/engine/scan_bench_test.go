package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bos/internal/tsfile"
)

// Read-path benchmarks. They use only the public engine API so the same
// code measures the engine before and after read-path changes;
// EXPERIMENTS.md, "Read-path benchmarks", records both sides.

// benchFill creates `files` on-disk data files of `perFile` points each for
// series "bench.scan". layout "sequential" gives each file a consecutive time
// range (in-order ingest); "overlapping" interleaves timestamps so every file
// spans the whole range (out-of-order ingest, worst case for the merge).
func benchFill(b *testing.B, dir, layout string, files, perFile int) *Engine {
	b.Helper()
	e, err := Open(Options{Dir: dir, FlushThreshold: 1 << 30, DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < files; f++ {
		pts := make([]tsfile.Point, perFile)
		for i := range pts {
			var t int64
			if layout == "sequential" {
				t = int64(f*perFile + i)
			} else {
				t = int64(i*files + f)
			}
			pts[i] = tsfile.Point{T: t, V: t % 1000}
		}
		if err := e.InsertBatch("bench.scan", pts); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkQueryEach measures long-range streaming scan throughput across
// multiple data files.
func BenchmarkQueryEach(b *testing.B) {
	const files, perFile = 6, 40000
	total := int64(files * perFile)
	for _, layout := range []string{"sequential", "overlapping"} {
		b.Run(layout, func(b *testing.B) {
			e := benchFill(b, b.TempDir(), layout, files, perFile)
			defer e.Close()
			b.ResetTimer()
			var points int64
			for i := 0; i < b.N; i++ {
				n := int64(0)
				err := e.QueryEach("bench.scan", 0, total, func(p tsfile.Point) error {
					n++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if n != total {
					b.Fatalf("scan returned %d points, want %d", n, total)
				}
				points += n
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkConcurrentIngestQuery measures mixed-load throughput: scans of one
// series while concurrent writers insert into other series — the cross-series
// contention profile the serving layer sees. Both sides are reported:
// scan_points/s for the reader and write_points/s for the combined writers,
// because a locking change can trade one against the other.
func BenchmarkConcurrentIngestQuery(b *testing.B) {
	const files, perFile, writers = 4, 25000, 4
	total := int64(files * perFile)
	dir := b.TempDir()
	e := benchFill(b, dir, "sequential", files, perFile)
	// Reopen with a bounded flush threshold so writer memtables drain to
	// disk as they would in production instead of growing without bound.
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	e, err := Open(Options{Dir: dir, FlushThreshold: 4 << 20, DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var written atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := fmt.Sprintf("bench.w%d", w)
			batch := make([]tsfile.Point, 500)
			next := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					batch[i] = tsfile.Point{T: next, V: next}
					next++
				}
				if err := e.InsertBatch(series, batch); err != nil {
					return
				}
				written.Add(int64(len(batch)))
			}
		}(w)
	}
	b.ResetTimer()
	var points int64
	for i := 0; i < b.N; i++ {
		n := int64(0)
		err := e.QueryEach("bench.scan", 0, total, func(p tsfile.Point) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		points += n
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "scan_points/s")
	b.ReportMetric(float64(written.Load())/b.Elapsed().Seconds(), "write_points/s")
}
