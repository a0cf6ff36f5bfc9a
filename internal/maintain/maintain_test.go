package maintain

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

func openEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// flushFile flushes one file of n points for series.
func flushFile(t *testing.T, e *engine.Engine, series string, base int64, n int) {
	t.Helper()
	pts := make([]tsfile.Point, n)
	for i := range pts {
		pts[i] = tsfile.Point{T: base + int64(i), V: int64(i % 100)}
	}
	if err := e.InsertBatch(series, pts); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPickRunTiers(t *testing.T) {
	mk := func(sizes ...int64) []engine.FileInfo {
		out := make([]engine.FileInfo, len(sizes))
		for i, b := range sizes {
			out[i] = engine.FileInfo{Seq: i, Bytes: b}
		}
		return out
	}
	cases := []struct {
		name  string
		infos []engine.FileInfo
		want  []int
	}{
		{"empty", nil, nil},
		{"single file", mk(100), nil},
		// A big old file must not drag into a merge of small fresh ones.
		{"tier break", mk(1_000_000, 100, 110, 90), []int{1, 2, 3}},
		{"all one tier", mk(100, 120, 100, 80), []int{0, 1, 2, 3}},
		// Two equal-length runs: the cheaper (fewer bytes) wins.
		{"cheapest tie-break", mk(1000, 1100, 50_000, 10, 12), []int{3, 4}},
		// Ratio boundary: tierRatio (4x) exactly is still one tier.
		{"ratio boundary", mk(100, 100*tierRatio), []int{0, 1}},
		{"ratio exceeded", mk(100, 100*tierRatio+1), nil},
	}
	for _, tc := range cases {
		got, _ := pickRun(tc.infos)
		if len(got) != len(tc.want) {
			t.Errorf("%s: pickRun = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: pickRun = %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestPickRunMaxFiles(t *testing.T) {
	infos := make([]engine.FileInfo, 2*maxFiles)
	for i := range infos {
		infos[i] = engine.FileInfo{Seq: i, Bytes: 100}
	}
	got, _ := pickRun(infos)
	if len(got) != maxFiles {
		t.Fatalf("pickRun = %v, want a %d-file window", got, maxFiles)
	}
}

func TestRunOnceCompacts(t *testing.T) {
	e := openEngine(t)
	for i := 0; i < 4; i++ {
		flushFile(t, e, "s", int64(i*1000), 500)
	}
	m := New(e, Config{})
	st, ran, err := m.RunOnce()
	if err != nil || !ran {
		t.Fatalf("RunOnce: ran=%v err=%v", ran, err)
	}
	if st.Files != 4 {
		t.Fatalf("merged %d files, want 4", st.Files)
	}
	if got := e.Stats().Files; got != 1 {
		t.Fatalf("files after maintenance: %d", got)
	}
	ms := m.Stats()
	if ms.Compactions != 1 || ms.Files != 4 || ms.BytesBefore == 0 {
		t.Fatalf("maintainer stats: %+v", ms)
	}
	// Nothing left to do: a second run is a no-op, not an error.
	if _, ran, err := m.RunOnce(); err != nil || ran {
		t.Fatalf("idle RunOnce: ran=%v err=%v", ran, err)
	}
	pts, err := e.Query("s", 0, 1<<40)
	if err != nil || len(pts) != 2000 {
		t.Fatalf("data after maintenance: %d points err %v", len(pts), err)
	}
}

// TestAdaptiveRepackingBeatsSinglePacker is the acceptance check for adaptive
// repacking: on mixed-distribution data — some series packing-friendly, some
// outlier-heavy — letting each series pick its cheapest operator must not
// lose to any single fixed default, and the per-series choices must be
// visible in the maintenance stats.
func TestAdaptiveRepackingBeatsSinglePacker(t *testing.T) {
	load := func(e *engine.Engine) {
		rng := rand.New(rand.NewSource(42)) // same data into both engines
		for file := 0; file < 3; file++ {
			// Tight uniform values: plain bit-packing is ideal.
			tight := make([]tsfile.Point, 400)
			// Gaussian body with heavy outliers: BOS/PFoR territory.
			outliers := make([]tsfile.Point, 400)
			for i := range tight {
				tt := int64(file*1000 + i)
				tight[i] = tsfile.Point{T: tt, V: rng.Int63n(16)}
				v := int64(rng.NormFloat64() * 50)
				if rng.Intn(20) == 0 {
					v = rng.Int63n(1 << 40) // 5% wild outliers
				}
				outliers[i] = tsfile.Point{T: tt, V: v}
			}
			if err := e.InsertBatch("tight", tight); err != nil {
				t.Fatal(err)
			}
			if err := e.InsertBatch("outliers", outliers); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}

	baseline := openEngine(t)
	load(baseline)
	baseStats, err := baseline.CompactWith(nil)
	if err != nil {
		t.Fatal(err)
	}

	adaptive := openEngine(t)
	load(adaptive)
	m := New(adaptive, Config{Adaptive: true})
	adStats, ran, err := m.RunOnce()
	if err != nil || !ran {
		t.Fatalf("adaptive RunOnce: ran=%v err=%v", ran, err)
	}
	if adStats.BytesAfter > baseStats.BytesAfter {
		t.Fatalf("adaptive repacking lost to single packer: %d > %d bytes",
			adStats.BytesAfter, baseStats.BytesAfter)
	}
	ms := m.Stats()
	if len(ms.SeriesPackers) == 0 {
		t.Fatal("no per-series packer choices recorded in maintenance stats")
	}
	for _, s := range []string{"tight", "outliers"} {
		if ms.SeriesPackers[s] == "" {
			t.Errorf("no packer recorded for %s: %v", s, ms.SeriesPackers)
		}
	}
	t.Logf("bytes: baseline=%d adaptive=%d choices=%v",
		baseStats.BytesAfter, adStats.BytesAfter, ms.SeriesPackers)

	// The repacked data must read back identically.
	for _, series := range []string{"tight", "outliers"} {
		b, err := baseline.Query(series, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		a, err := adaptive.Query(series, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d points vs baseline %d", series, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: point %d: %v vs %v", series, i, a[i], b[i])
			}
		}
	}
}

func TestRateLimitDefersRuns(t *testing.T) {
	e := openEngine(t)
	for i := 0; i < 3; i++ {
		flushFile(t, e, "s", int64(i*1000), 500)
	}
	// A 1 byte/s budget can never afford a multi-KB run.
	m := New(e, Config{BytesPerSec: 1})
	m.tick()
	if st := m.Stats(); st.Compactions != 0 || st.RateLimited != 1 || st.Ticks != 1 {
		t.Fatalf("stats under starvation budget: %+v", st)
	}
	if e.Stats().Files != 3 {
		t.Fatal("rate-limited tick still compacted")
	}
	// A generous budget lets the same tick through.
	m2 := New(e, Config{BytesPerSec: 1 << 30})
	m2.mu.Lock()
	m2.lastRefill = time.Now().Add(-time.Second)
	m2.mu.Unlock()
	m2.tick()
	if st := m2.Stats(); st.Compactions != 1 {
		t.Fatalf("funded tick did not compact: %+v", st)
	}
}

func TestSchedulerRunsAndStops(t *testing.T) {
	e := openEngine(t)
	for i := 0; i < 4; i++ {
		flushFile(t, e, "s", int64(i*1000), 200)
	}
	m := New(e, Config{Interval: 5 * time.Millisecond})
	m.Start()
	deadline := time.After(5 * time.Second)
	for m.Stats().Compactions == 0 {
		select {
		case <-deadline:
			t.Fatal("scheduler never compacted")
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.Stop()
	m.Stop() // idempotent
	after := m.Stats()
	time.Sleep(30 * time.Millisecond)
	if got := m.Stats(); got.Ticks != after.Ticks {
		t.Fatal("scheduler still ticking after Stop")
	}
	// The engine is untouched by shutdown and still serves.
	if _, err := e.Query("s", 0, 1<<40); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceUnderLoad is the -race stress test: a fast-ticking
// maintainer compacts while writers and readers hammer the engine. Nothing
// may race, block, or lose data.
func TestMaintenanceUnderLoad(t *testing.T) {
	e := openEngine(t)
	m := New(e, Config{Interval: time.Millisecond, Adaptive: true})
	m.Start()
	defer m.Stop()

	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			series := []string{"a", "b"}[w%2]
			for i := 0; i < perWriter; i++ {
				tt := int64(w*perWriter + i)
				if err := e.Insert(series, tt, tt); err != nil {
					errs <- err
					return
				}
				if i%25 == 0 {
					if err := e.Flush(); err != nil {
						errs <- err
						return
					}
				}
				if i%10 == 0 {
					if _, err := e.Query(series, 0, 1<<40); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m.Stop()
	// Every write must be readable; timestamps are disjoint per writer pair.
	for _, series := range []string{"a", "b"} {
		pts, err := e.Query(series, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 2*perWriter {
			t.Fatalf("%s: %d points, want %d", series, len(pts), 2*perWriter)
		}
	}
	if m.Stats().Compactions == 0 {
		t.Log("note: no compaction committed during the stress window")
	}
}
