package maintain

import (
	"math/rand"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// benchLoad fills an engine with nFiles flushed files of nSeries mixed
// distributions each — the workload a maintenance compaction actually sees.
func benchLoad(b *testing.B, e *engine.Engine, nFiles, nSeries, perChunk int) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	names := []string{"counter", "gauge", "noisy", "spiky"}
	for f := 0; f < nFiles; f++ {
		for s := 0; s < nSeries; s++ {
			pts := make([]tsfile.Point, perChunk)
			base := int64(f * perChunk)
			for i := range pts {
				t := base + int64(i)
				var v int64
				switch names[s%len(names)] {
				case "counter":
					v = t * 3
				case "gauge":
					v = rng.Int63n(128)
				case "noisy":
					v = int64(rng.NormFloat64() * 1000)
				default: // spiky: small body, rare huge outliers
					v = rng.Int63n(32)
					if rng.Intn(25) == 0 {
						v = rng.Int63n(1 << 42)
					}
				}
				pts[i] = tsfile.Point{T: t, V: v}
			}
			name := names[s%len(names)]
			if s >= len(names) {
				name = names[s%len(names)] + string(rune('a'+s/len(names)))
			}
			if err := e.InsertBatch(name, pts); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompact measures a full maintenance compaction of N files × M
// series, with and without adaptive repacking. EXPERIMENTS.md, "Compaction
// benchmark", records it.
func BenchmarkCompact(b *testing.B) {
	const nFiles, nSeries, perChunk = 8, 8, 2000
	run := func(b *testing.B, adaptive bool) {
		var bytesAfter int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := engine.Open(engine.Options{Dir: b.TempDir(), DisableWAL: true})
			if err != nil {
				b.Fatal(err)
			}
			benchLoad(b, e, nFiles, nSeries, perChunk)
			m := New(e, Config{Adaptive: adaptive})
			b.StartTimer()
			st, err := m.CompactAll()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if st.Files != nFiles {
				b.Fatalf("compacted %d files, want %d", st.Files, nFiles)
			}
			bytesAfter = st.BytesAfter
			e.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(nFiles*nSeries*perChunk)/b.Elapsed().Seconds()/float64(b.N), "points/s")
		b.ReportMetric(float64(bytesAfter), "bytes_after")
	}
	b.Run("default", func(b *testing.B) { run(b, false) })
	b.Run("adaptive", func(b *testing.B) { run(b, true) })
}
