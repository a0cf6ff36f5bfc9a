//go:build unix

package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
	"time"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// BenchmarkIngestHTTP measures concurrent ingest through the whole serving
// stack: writers goroutines, each posting 500-point batches of its own
// series through Client.Ingest, 800,000 points in all per iteration, into a
// fresh engine at the default flush threshold, with the WAL async and with
// SyncWAL. It reports points/s of wall time, points per CPU-second of the
// process (client and server share it) and the engine's WAL records and
// commit groups: records/groups is how many requests one WAL write served.
//
// The file uses only the exported server and engine API, so the identical
// benchmark compiles against an older revision for before/after pairs
// (EXPERIMENTS.md, "One write-batching layer"). Run it with -benchtime 1x.
func BenchmarkIngestHTTP(b *testing.B) {
	for _, syncWAL := range []bool{false, true} {
		for _, writers := range []int{1, 8} {
			name := fmt.Sprintf("sync=%v/writers=%d", syncWAL, writers)
			b.Run(name, func(b *testing.B) { benchIngestHTTP(b, syncWAL, writers) })
		}
	}
}

func benchIngestHTTP(b *testing.B, syncWAL bool, writers int) {
	const (
		total = 800_000
		batch = 500
	)
	var wall, cpu time.Duration
	var records, groups int64
	for i := 0; i < b.N; i++ {
		eng, err := engine.Open(engine.Options{Dir: b.TempDir(), SyncWAL: syncWAL})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(Options{Backend: NewEngineBackend(eng)})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		start, cpu0 := time.Now(), processCPU(b)
		var wg sync.WaitGroup
		errc := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := NewClient(ts.URL, ts.Client())
				series := fmt.Sprintf("root.probe.w%d", w)
				pts := make([]tsfile.Point, batch)
				for base := 0; base < total/writers; base += batch {
					for k := range pts {
						t := int64(base + k)
						pts[k] = tsfile.Point{T: t, V: t%977 + int64(w)}
					}
					if _, err := c.Ingest(series, pts); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		wall += time.Since(start)
		cpu += processCPU(b) - cpu0
		close(errc)
		for err := range errc {
			b.Fatal(err)
		}
		st := eng.Stats()
		records += st.WALRecords
		groups += st.WALGroups
		ts.Close()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	points := float64(b.N) * total
	b.ReportMetric(points/wall.Seconds(), "points/s")
	b.ReportMetric(points/cpu.Seconds(), "points/cpu-s")
	b.ReportMetric(float64(records)/float64(b.N), "wal_records")
	b.ReportMetric(float64(groups)/float64(b.N), "wal_groups")
}

// processCPU is the user and system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
