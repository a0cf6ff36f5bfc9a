package engine

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"bos/internal/pushdown"
	"bos/internal/tsfile"
)

// TestPushdownSpeedup is the compressed-domain executor's speed gate. A
// series of 200,000 points sits in one 4096-point chunk per file, the layout
// time-ordered ingest flushes. A windowed aggregate and a whole-range
// aggregate must each run at least 2x faster through pushdown than as a fold
// over a full-decode QueryEach (in practice two orders of magnitude), and the
// stats and inlier tiers must both answer chunks. The selective value
// filter's speedup is logged but not gated. Every pushdown answer must equal
// its fold. The chunk cache is off, so the comparison is decode work avoided,
// not cache hits. Opt-in via BOS_BENCH_SMOKE=1, like the bitio kernel smoke.
func TestPushdownSpeedup(t *testing.T) {
	if os.Getenv("BOS_BENCH_SMOKE") == "" {
		t.Skip("set BOS_BENCH_SMOKE=1 to run the pushdown speedup smoke")
	}
	const (
		points       = 200_000
		chunkSize    = 4096
		window       = 2 * chunkSize
		iters        = 20
		outlierFloor = 1 << 18
		maxT         = points - 1
		series       = "root.bench.pushdown"
	)
	// One explicit flush per batch writes one chunk per file; the flush
	// threshold never splits a batch.
	e := openTest(t, Options{CacheBytes: -1, FlushThreshold: 1 << 30})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	for base := 0; base < points; base += chunkSize {
		pts := make([]tsfile.Point, min(chunkSize, points-base))
		for i := range pts {
			// A tight inlier band with ~1% spikes above outlierFloor, so the
			// filter can skip whole inlier planes.
			v := int64(rng.NormFloat64()*50) + 1000
			if rng.Intn(100) == 0 {
				v += outlierFloor + int64(rng.Intn(1<<19))
			}
			pts[i] = tsfile.Point{T: int64(base + i), V: v}
		}
		flushSeries(t, e, series, pts...)
	}

	// timed runs op iters times and returns the mean time of one run.
	timed := func(op func() error) time.Duration {
		t.Helper()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / iters
	}
	// fold is the full-decode reference: every point through QueryEach,
	// bucketed by the caller.
	fold := func(window int64) ([]Bucket, error) {
		w := pushdown.NewWindows(0, window)
		err := e.QueryEach(series, 0, maxT, func(p tsfile.Point) error {
			w.Add(p.T, p.V)
			return nil
		})
		return w.Buckets(), err
	}
	var pdWin, fullWin, pdAgg, fullAgg []Bucket
	var pdHits, fullHits []tsfile.Point

	winPD := timed(func() (err error) {
		pdWin, err = e.Downsample(series, 0, maxT, window)
		return err
	})
	aggPD := timed(func() error {
		b, err := e.Aggregate(series, 0, maxT)
		pdAgg = []Bucket{b}
		return err
	})
	filterPD := timed(func() error {
		pdHits = pdHits[:0]
		return e.QueryFilterEach(series, 0, maxT, outlierFloor, math.MaxInt64, func(p tsfile.Point) error {
			pdHits = append(pdHits, p)
			return nil
		})
	})
	tiers := e.Stats().Pushdown

	winFull := timed(func() (err error) {
		fullWin, err = fold(window)
		return err
	})
	aggFull := timed(func() (err error) {
		fullAgg, err = fold(0)
		return err
	})
	filterFull := timed(func() error {
		fullHits = fullHits[:0]
		return e.QueryEach(series, 0, maxT, func(p tsfile.Point) error {
			if p.V >= outlierFloor {
				fullHits = append(fullHits, p)
			}
			return nil
		})
	})

	// A speedup counts only if the answers agree.
	requireBuckets(t, "windowed", pdWin, fullWin)
	requireBuckets(t, "aggregate", pdAgg, fullAgg)
	if !slices.Equal(pdHits, fullHits) {
		t.Fatalf("filter: pushdown %d points, full decode %d, or they differ", len(pdHits), len(fullHits))
	}

	for _, op := range []struct {
		name     string
		full, pd time.Duration
		floor    float64 // 0 = logged only
	}{
		{"windowed", winFull, winPD, 2},
		{"aggregate", aggFull, aggPD, 2},
		{"filter", filterFull, filterPD, 0},
	} {
		sp := float64(op.full) / float64(op.pd)
		t.Logf("%s: full decode %v, pushdown %v, speedup %.2fx", op.name, op.full, op.pd, sp)
		if sp < op.floor {
			t.Errorf("%s speedup %.2fx < %.0fx", op.name, sp, op.floor)
		}
	}
	t.Logf("tiers: %+v", tiers)
	if tiers.Stats == 0 || tiers.Inlier == 0 {
		t.Errorf("tiers %+v: want chunks answered by both the stats and the inlier tier", tiers)
	}
}
