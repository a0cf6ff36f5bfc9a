package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// TestConcurrentIngestMatchesSequential runs 8 concurrent writer clients
// (each split into interleaved shards, so requests of different writers
// commit concurrently and share the engine's WAL commit groups) while 4
// reader clients query mid-ingest, then verifies the stored result is
// byte-exact — the CSV wire form — against the same points written
// sequentially by a single writer into a fresh engine.
func TestConcurrentIngestMatchesSequential(t *testing.T) {
	const (
		writers   = 8
		readers   = 4
		perWriter = 2000
		shards    = 4
	)

	// Deterministic dataset: each writer owns one series.
	points := func(w int) []tsfile.Point {
		pts := make([]tsfile.Point, perWriter)
		for i := range pts {
			t := int64(i)
			pts[i] = tsfile.Point{T: t, V: t*int64(w+1) - int64(w)*7}
		}
		return pts
	}

	// Concurrent run, small flush threshold so data crosses the memtable /
	// file boundary repeatedly during the test.
	concDir := t.TempDir()
	eng, err := engine.Open(engine.Options{Dir: concDir, FlushThreshold: 1024})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL, ts.Client())
			series := fmt.Sprintf("root.sg.d%d", w)
			pts := points(w)
			// Interleaved shards: shard k sends points k, k+shards, ... so
			// concurrent requests of different writers overlap in time.
			for k := 0; k < shards; k++ {
				var shard []tsfile.Point
				for i := k; i < len(pts); i += shards {
					shard = append(shard, pts[i])
				}
				if _, err := c.Ingest(series, shard); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewClient(ts.URL, ts.Client())
			for i := 0; i < 30; i++ {
				series := fmt.Sprintf("root.sg.d%d", (r+i)%writers)
				// Mid-ingest reads may see partial data; they must not
				// error (404 before the first point is fine) or misorder.
				pts, err := c.Query(series, 0, perWriter)
				if err != nil {
					continue
				}
				for j := 1; j < len(pts); j++ {
					if pts[j].T <= pts[j-1].T {
						errc <- fmt.Errorf("reader %d: misordered scan of %s", r, series)
						return
					}
				}
				if _, err := c.Stats(); err != nil {
					errc <- fmt.Errorf("reader %d: stats: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st, err := NewClient(ts.URL, ts.Client()).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestPoints != writers*perWriter {
		t.Fatalf("acknowledged %d points, want %d", st.IngestPoints, writers*perWriter)
	}
	if st.IngestBatches != writers*shards {
		t.Fatalf("acknowledged %d batches, want %d", st.IngestBatches, writers*shards)
	}

	// Sequential reference run: one writer, same points, insertion in plain
	// order, then the same flush/close lifecycle.
	seqDir := t.TempDir()
	seqEng, err := engine.Open(engine.Options{Dir: seqDir, FlushThreshold: 1024})
	if err != nil {
		t.Fatal(err)
	}
	seqSrv, err := New(Options{Backend: NewEngineBackend(seqEng)})
	if err != nil {
		t.Fatal(err)
	}
	seqTS := httptest.NewServer(seqSrv.Handler())
	seqClient := NewClient(seqTS.URL, seqTS.Client())
	for w := 0; w < writers; w++ {
		series := fmt.Sprintf("root.sg.d%d", w)
		if _, err := seqClient.Ingest(series, points(w)); err != nil {
			t.Fatal(err)
		}
	}

	// Byte-exact comparison of every series' full CSV scan.
	concClient := NewClient(ts.URL, ts.Client())
	for w := 0; w < writers; w++ {
		series := fmt.Sprintf("root.sg.d%d", w)
		got, err := concClient.QueryRaw(series, 0, perWriter)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seqClient.QueryRaw(series, 0, perWriter)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: concurrent scan differs from sequential (%d vs %d bytes)",
				series, len(got), len(want))
		}
	}

	ts.Close()
	seqTS.Close()
	for _, s := range []*Server{srv, seqSrv} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seqEng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClientConcurrentScans runs 8 goroutines over one shared Client and one
// server, each issuing every kind of typed scan, and checks every answer
// against the engine's in-process one. The client's decode buffers and the
// server's row buffers come from pools the goroutines share. It runs with
// the engine's chunk cache on, which the reference queries fill, and off, so
// that every window and filter also decodes into the pooled chunk read
// buffers the goroutines share. CI runs this test under -race.
func TestClientConcurrentScans(t *testing.T) {
	for _, cacheBytes := range []int64{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			concurrentScans(t, cacheBytes)
		})
	}
}

func concurrentScans(t *testing.T, cacheBytes int64) {
	const (
		goroutines = 8
		rounds     = 3
		intSeries  = 3
		// A scan's 8001 int points span two frames of frameRecords, and
		// the 15000 float points four.
		points = 20000
	)
	eng, err := engine.Open(engine.Options{Dir: t.TempDir(), FlushThreshold: 4000, CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for s := 0; s < intSeries; s++ {
		pts := make([]tsfile.Point, points)
		for i := range pts {
			v := int64(i*i) - int64(s)*1_000_003
			if i%97 == 0 {
				v = math.MaxInt64 - int64(i) // 19 digits
			}
			pts[i] = tsfile.Point{T: int64(i)*1000 - 5_000_000, V: v}
		}
		if err := eng.InsertBatch(fmt.Sprintf("root.c.i%d", s), pts); err != nil {
			t.Fatal(err)
		}
	}
	floats := make([]tsfile.FloatPoint, points*3/4)
	for i := range floats {
		floats[i] = tsfile.FloatPoint{T: int64(i) * 7, V: float64(i)*0.37 - 99.5}
	}
	if err := eng.InsertFloatBatch("root.c.f", floats); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	const (
		from, to   = -4_000_000, 4_000_000
		vmin, vmax = 1000, math.MaxInt64 - 500
		window     = 250_000
	)
	var wantEach, wantFilter [intSeries][]tsfile.Point
	var wantWindow [intSeries][]Bucket
	for s := range wantEach {
		name := fmt.Sprintf("root.c.i%d", s)
		if wantEach[s], err = eng.Query(name, from, to); err != nil {
			t.Fatal(err)
		}
		err := eng.QueryFilterEach(name, from, to, vmin, vmax, func(p tsfile.Point) error {
			wantFilter[s] = append(wantFilter[s], p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantWindow[s], err = eng.Downsample(name, from, to, window); err != nil {
			t.Fatal(err)
		}
		if len(wantEach[s]) <= frameRecords || len(wantFilter[s]) == 0 || len(wantWindow[s]) == 0 {
			t.Fatalf("%s: answers too small to test anything", name)
		}
	}
	wantFloats, err := eng.QueryFloats("root.c.f", 0, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantFloats) <= 3*frameRecords {
		t.Fatalf("%d float points fit in three frames", len(wantFloats))
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func() error {
				for r := 0; r < rounds; r++ {
					s := (g + r) % intSeries
					name := fmt.Sprintf("root.c.i%d", s)
					var each, filter []tsfile.Point
					var buckets []Bucket
					collect := func(out *[]tsfile.Point) func(tsfile.Point) error {
						return func(p tsfile.Point) error { *out = append(*out, p); return nil }
					}
					if err := c.QueryEach(name, from, to, collect(&each)); err != nil {
						return err
					}
					if !reflect.DeepEqual(each, wantEach[s]) {
						return fmt.Errorf("%s: QueryEach differs from the engine (%d vs %d points)", name, len(each), len(wantEach[s]))
					}
					fl, err := c.QueryFloats("root.c.f", 0, math.MaxInt64)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(fl, wantFloats) {
						return fmt.Errorf("QueryFloats differs from the engine (%d vs %d points)", len(fl), len(wantFloats))
					}
					if err := c.QueryFilterEach(name, from, to, vmin, vmax, collect(&filter)); err != nil {
						return err
					}
					if !reflect.DeepEqual(filter, wantFilter[s]) {
						return fmt.Errorf("%s: QueryFilterEach differs from the engine (%d vs %d points)", name, len(filter), len(wantFilter[s]))
					}
					err = c.Window(name, from, to, window, func(b Bucket) error {
						buckets = append(buckets, b)
						return nil
					})
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(buckets, wantWindow[s]) {
						return fmt.Errorf("%s: Window differs from the engine (%d vs %d buckets)", name, len(buckets), len(wantWindow[s]))
					}
				}
				return nil
			}
			if err := check(); err != nil {
				errc <- fmt.Errorf("goroutine %d: %w", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if tiers := eng.Stats().Pushdown; cacheBytes < 0 && tiers.Inlier == 0 {
		t.Errorf("cache off: pushdown tiers %+v, no chunk read in part", tiers)
	}
}
