package engine

import (
	"fmt"
	"testing"

	"bos/internal/tsfile"
)

// BenchmarkReadManyFiles measures the three range reads on two layouts of
// 80 series of 16384 points, every fourth series holding floats. "files" is
// the layout a round-robin ingest leaves: 500-point batches flushed every
// 16384 points, so about 80 files hold ~500-point chunks and each series
// sits in ~33 of them. "compacted" is the same data after a full
// compaction: one file with one chunk per series. After one full read pass
// warms the chunk cache, each op reads 4096 points of the next series at
// the next offset, so the cost is the per-file cursors and the merge, not
// decode.
func BenchmarkReadManyFiles(b *testing.B) {
	const nSeries, perSeries, batch, span = 80, 16384, 500, 4096
	e, err := Open(Options{Dir: b.TempDir(), DisableWAL: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	name := func(s int) string { return fmt.Sprintf("bench.s%02d", s) }
	isFloat := func(s int) bool { return s%4 == 3 }
	for lo := 0; lo < perSeries; lo += batch {
		hi := min(lo+batch, perSeries)
		for s := 0; s < nSeries; s++ {
			var err error
			if isFloat(s) {
				pts := make([]tsfile.FloatPoint, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pts = append(pts, tsfile.FloatPoint{T: int64(k) * 1000, V: float64(k%977) / 8})
				}
				err = e.InsertFloatBatch(name(s), pts)
			} else {
				pts := make([]tsfile.Point, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pts = append(pts, tsfile.Point{T: int64(k) * 1000, V: int64(k%977) * int64(s+1)})
				}
				err = e.InsertBatch(name(s), pts)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	// next returns the series and time range of the i-th read of one kind.
	next := func(i int, float bool) (string, int64, int64) {
		s := (i * 7) % nSeries
		for isFloat(s) != float {
			s = (s + 1) % nSeries
		}
		lo := int64((i*1237)%(perSeries-span)) * 1000
		return name(s), lo, lo + (span-1)*1000
	}
	check := func(b *testing.B, n int) {
		if n != span {
			b.Fatalf("read %d points, want %d", n, span)
		}
	}
	for _, layout := range []string{"files", "compacted"} {
		if layout == "compacted" {
			if err := e.Compact(); err != nil {
				b.Fatal(err)
			}
		}
		for s := 0; s < nSeries; s++ {
			if isFloat(s) {
				_, err = e.QueryFloats(name(s), 0, perSeries*1000)
			} else {
				_, err = e.Query(name(s), 0, perSeries*1000)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(layout+"/Query", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := e.Query(next(i, false))
				if err != nil {
					b.Fatal(err)
				}
				check(b, len(pts))
			}
		})
		b.Run(layout+"/QueryEach", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				series, lo, hi := next(i, false)
				if err := e.QueryEach(series, lo, hi, func(tsfile.Point) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				check(b, n)
			}
		})
		b.Run(layout+"/QueryFloats", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := e.QueryFloats(next(i, true))
				if err != nil {
					b.Fatal(err)
				}
				check(b, len(pts))
			}
		})
	}
}
