package cluster

import (
	"errors"
	"reflect"
	"testing"

	"bos/internal/chunkcache"
	"bos/internal/engine"
	"bos/internal/pushdown"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// scripted wraps a shard, scripting its roll-up answers and failures.
type scripted struct {
	Shard
	kind      string
	kindErr   error
	healthErr error
	stats     engine.Stats
	compact   engine.CompactStats
}

func (s *scripted) SeriesKind(string) (string, error)        { return s.kind, s.kindErr }
func (s *scripted) Health() error                            { return s.healthErr }
func (s *scripted) Stats() (engine.Stats, error)             { return s.stats, nil }
func (s *scripted) CompactAll() (engine.CompactStats, error) { return s.compact, nil }

// TestRouterRollups checks every answer the Router rolls up from several
// shards against hand-computed values: aggregates and windows that two
// shards feed, the series union, the kind preference, the footprint and
// compaction sums, and per-shard status with one shard down.
func TestRouterRollups(t *testing.T) {
	router, err := Open(DefaultManifest(3), t.TempDir(), engine.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	engineOf := func(i int) *engine.Engine { return router.Shards()[i].(*LocalShard).Engine() }

	// mv sits on two shards, as a series mid-move does, written straight
	// into their engines: flushed on its owner, buffered on the other.
	// one sits on its owner.
	owner := router.Owner("mv")
	other := (owner + 1) % 3
	if err := engineOf(owner).InsertBatch("mv", []tsfile.Point{{T: 0, V: 5}, {T: 10, V: -7}, {T: 25, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := engineOf(owner).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := engineOf(other).InsertBatch("mv", []tsfile.Point{{T: 5, V: -20}, {T: 12, V: 100}, {T: 30, V: -1}}); err != nil {
		t.Fatal(err)
	}
	if err := router.InsertGrouped(map[string][]tsfile.Point{"one": {{T: 1, V: 42}, {T: 2, V: -42}}}, nil); err != nil {
		t.Fatal(err)
	}

	agg, err := router.Aggregate("mv", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := (engine.Bucket{Start: 0, Count: 6, Min: -20, Max: 100, Sum: 80}); agg != want {
		t.Errorf("Aggregate(mv) = %+v, want %+v", agg, want)
	}
	if agg, err := router.Aggregate("mv", 200, 300); err != nil || agg != (engine.Bucket{Start: 200}) {
		t.Errorf("Aggregate(mv) past its data = %+v, %v; want an empty bucket at 200", agg, err)
	}
	windows, err := router.Downsample("mv", 0, 39, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantWindows := []engine.Bucket{
		{Start: 0, Count: 2, Min: -20, Max: 5, Sum: -15},
		{Start: 10, Count: 2, Min: -7, Max: 100, Sum: 93},
		{Start: 20, Count: 1, Min: 3, Max: 3, Sum: 3},
		{Start: 30, Count: 1, Min: -1, Max: -1, Sum: -1},
	}
	if !reflect.DeepEqual(windows, wantWindows) {
		t.Errorf("Downsample(mv) = %+v, want %+v", windows, wantWindows)
	}
	if names, err := router.Series(); err != nil || !reflect.DeepEqual(names, []string{"mv", "one"}) {
		t.Errorf("Series() = %v, %v; want [mv one]", names, err)
	}

	stats, err := router.SeriesStats()
	if err != nil {
		t.Fatal(err)
	}
	ownStats := engineOf(owner).SeriesStats()
	if len(stats) != 2 || len(ownStats) == 0 || ownStats[0].Name != "mv" {
		t.Fatalf("SeriesStats() = %+v (owner's: %+v), want mv and one", stats, ownStats)
	}
	wantMV := engine.SeriesStat{Name: "mv", Kind: "int", MemPoints: 3, DiskPoints: 3, DiskBytes: ownStats[0].DiskBytes, Chunks: 1, MinT: 0, MaxT: 30}
	if stats[0] != wantMV {
		t.Errorf("SeriesStats mv = %+v, want %+v", stats[0], wantMV)
	}
	if want := (engine.SeriesStat{Name: "one", Kind: "int", MemPoints: 2, MinT: 1, MaxT: 2}); stats[1] != want {
		t.Errorf("SeriesStats one = %+v, want %+v", stats[1], want)
	}

	// The same shards behind scripted wrappers.
	wrap := make([]*scripted, 3)
	shards := make([]Shard, 3)
	for i := range wrap {
		wrap[i] = &scripted{Shard: router.Shards()[i], kind: "int"}
		shards[i] = wrap[i]
	}
	scriptedRouter, err := New(router.Manifest(), shards)
	if err != nil {
		t.Fatal(err)
	}

	// SeriesKind prefers the owner's healthy answer, then any other
	// shard's, and ignores a failing shard while some shard knows.
	o, n1, n2 := owner, (owner+1)%3, (owner+2)%3
	wrap[n1].kind, wrap[n1].kindErr = "", errors.New("shard unreachable")
	wrap[n2].kind = "float"
	if kind, err := scriptedRouter.SeriesKind("mv"); err != nil || kind != "int" {
		t.Errorf("SeriesKind with the owner healthy = %q, %v; want the owner's int", kind, err)
	}
	wrap[o].kind, wrap[o].kindErr = "", errors.New("owner unreachable")
	if kind, err := scriptedRouter.SeriesKind("mv"); err != nil || kind != "float" {
		t.Errorf("SeriesKind with the owner failing = %q, %v; want the healthy non-owner's float", kind, err)
	}
	wrap[n2].kind, wrap[n2].kindErr = "", errors.New("third shard unreachable")
	kind, err := scriptedRouter.SeriesKind("mv")
	if kind != "" || err == nil {
		t.Errorf("SeriesKind with every shard failing = %q, %v; want the joined errors", kind, err)
	}
	for _, w := range wrap {
		if !errors.Is(err, w.kindErr) {
			t.Errorf("SeriesKind error %q lacks %q", err, w.kindErr)
		}
	}

	// Footprint and compaction sums.
	for i, w := range wrap {
		k := int64(i + 1)
		w.stats = engine.Stats{
			Files: int(k), MemPoints: int(10 * k), DiskPoints: int(100 * k), DiskBytes: 1000 * k, SeriesCount: int(k),
			Compactions: k, CompactedFiles: 2 * k, CompactedBytesIn: 30 * k, CompactedBytesOut: 20 * k,
			WALGroups: 5 * k, WALRecords: 7 * k,
			Cache:    chunkcache.Stats{Hits: k, Misses: 2 * k, Evictions: 3 * k, Invalidations: 4 * k, Declined: 7 * k, Entries: int(5 * k), Bytes: 6 * k, MaxBytes: 64 * k},
			Pushdown: pushdown.Snapshot{Stats: k, Inlier: 2 * k, Full: 3 * k},
		}
	}
	wrap[0].compact = engine.CompactStats{Files: 2, Series: 2, Points: 40, BytesBefore: 500, BytesAfter: 300, SeriesPackers: map[string]string{"a": "bp"}}
	wrap[1].compact = engine.CompactStats{Files: 1, Series: 1, Points: 7, BytesBefore: 90, BytesAfter: 80}
	wrap[2].compact = engine.CompactStats{Files: 3, Series: 2, Points: 11, BytesBefore: 60, BytesAfter: 50, SeriesPackers: map[string]string{"b": "pfor", "c": "bosb"}}
	sum, err := scriptedRouter.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantSum := engine.Stats{
		Files: 6, MemPoints: 60, DiskPoints: 600, DiskBytes: 6000, SeriesCount: 6,
		Compactions: 6, CompactedFiles: 12, CompactedBytesIn: 180, CompactedBytesOut: 120,
		WALGroups: 30, WALRecords: 42,
		Cache:    chunkcache.Stats{Hits: 6, Misses: 12, Evictions: 18, Invalidations: 24, Declined: 42, Entries: 30, Bytes: 36, MaxBytes: 384},
		Pushdown: pushdown.Snapshot{Stats: 6, Inlier: 12, Full: 18},
	}
	if sum != wantSum {
		t.Errorf("Stats() = %+v, want %+v", sum, wantSum)
	}
	compacted, err := scriptedRouter.CompactAll()
	if err != nil {
		t.Fatal(err)
	}
	wantCompacted := engine.CompactStats{Files: 6, Series: 5, Points: 58, BytesBefore: 650, BytesAfter: 430,
		SeriesPackers: map[string]string{"a": "bp", "b": "pfor", "c": "bosb"}}
	if !reflect.DeepEqual(compacted, wantCompacted) {
		t.Errorf("CompactAll() = %+v, want %+v", compacted, wantCompacted)
	}

	// One shard down: it reports the probe's error and no footprint; the
	// others report theirs.
	wrap[1].healthErr = errors.New("connection refused")
	statuses := scriptedRouter.ShardStatuses()
	if len(statuses) != 3 {
		t.Fatalf("ShardStatuses() = %+v, want 3", statuses)
	}
	for i, st := range statuses {
		want := server.ShardStatus{ID: i, Backend: BackendLocal, Target: router.Shards()[i].Target(), Healthy: true}
		if i == 1 {
			want.Healthy, want.Error = false, "connection refused"
		} else {
			es := wrap[i].stats
			want.SeriesCount, want.MemPoints, want.DiskPoints, want.DiskBytes, want.Files = es.SeriesCount, es.MemPoints, es.DiskPoints, es.DiskBytes, es.Files
			want.CacheHits, want.CacheMisses, want.WALGroups, want.WALRecords = es.Cache.Hits, es.Cache.Misses, es.WALGroups, es.WALRecords
		}
		if st != want {
			t.Errorf("ShardStatuses()[%d] = %+v, want %+v", i, st, want)
		}
	}
}
