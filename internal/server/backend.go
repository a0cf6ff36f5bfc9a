package server

import (
	"sort"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// Backend is the storage interface the HTTP handlers serve. The single-node
// backend is *engine.Engine (wrapped by engineBackend below, which preserves
// the pre-Backend behavior byte for byte); internal/cluster's Router
// implements Backend over N engine shards with scatter-gather fan-out.
//
// Methods mirror the engine API but uniformly return errors: a sharded
// backend can fail partway through operations the in-process engine cannot.
type Backend interface {
	// InsertGrouped commits one coalesced commit group: every series of the
	// group, already merged per series in request order. A sharded backend
	// splits the group once by owning shard and commits shards in parallel.
	InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error
	// QueryEach streams the merged points of a series in [minT, maxT] in
	// time order through fn; fn returning an error aborts the scan.
	QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error
	QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error)
	// QueryFilterEach streams the points of a series with minT <= T <= maxT
	// and minV <= V <= maxV through fn in time order. Engine-backed shards
	// answer it in the compressed domain where chunk statistics allow.
	QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error
	Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error)
	// Aggregate folds a series over [minT, maxT] into a single bucket
	// (Count 0 when the range is empty) using chunk statistics and partial
	// decode where possible.
	Aggregate(series string, minT, maxT int64) (engine.Bucket, error)
	Series() ([]string, error)
	// SeriesKind reports "int", "float", or "" for an unknown series.
	SeriesKind(series string) (string, error)
	SeriesStats() ([]engine.SeriesStat, error)
	Stats() (engine.Stats, error)
	// Flush persists buffered writes (every shard, for sharded backends).
	Flush() error
}

// Compactor is the optional Backend upgrade behind POST /compact?mode=full
// when no Maintainer is configured. A sharded backend fans the compaction out
// and sums the per-shard results.
type Compactor interface {
	CompactAll() (engine.CompactStats, error)
}

// ShardStatus is one shard's health and footprint, reported by sharded
// backends in the /stats "shards" block and the /healthz detail.
type ShardStatus struct {
	ID      int    `json:"id"`
	Backend string `json:"backend"` // "local" or "remote"
	Target  string `json:"target"`  // data dir (local) or base URL (remote)
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`

	SeriesCount int   `json:"series_count"`
	MemPoints   int   `json:"mem_points"`
	DiskPoints  int   `json:"disk_points"`
	DiskBytes   int64 `json:"disk_bytes"`
	Files       int   `json:"files"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	WALGroups   int64 `json:"wal_groups"`
	WALRecords  int64 `json:"wal_records"`
}

// ShardStatuser is the optional Backend upgrade a sharded backend implements:
// /stats gains a per-shard block and /healthz aggregates shard health (any
// unhealthy shard turns the whole endpoint 503 with per-shard detail).
type ShardStatuser interface {
	ShardStatuses() []ShardStatus
}

// engineBackend adapts *engine.Engine to Backend. Every method is a direct
// delegation, so single-engine serving behaves exactly as it did before the
// Backend seam existed.
type engineBackend struct {
	eng *engine.Engine
}

// NewEngineBackend wraps a single engine as a Backend, the storage a
// single-node Server serves.
func NewEngineBackend(eng *engine.Engine) Backend { return engineBackend{eng: eng} }

// InsertGrouped inserts the group's series in sorted order, integers first —
// the commit order the coalescer used before backends existed, kept so
// last-write-wins stays deterministic.
func (b engineBackend) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	for _, s := range sortedKeys(ints) {
		if err := b.eng.InsertBatch(s, ints[s]); err != nil {
			return err
		}
	}
	for _, s := range sortedKeys(floats) {
		if err := b.eng.InsertFloatBatch(s, floats[s]); err != nil {
			return err
		}
	}
	return nil
}

func (b engineBackend) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	return b.eng.QueryEach(series, minT, maxT, fn)
}

func (b engineBackend) QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error) {
	return b.eng.QueryFloats(series, minT, maxT)
}

func (b engineBackend) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	return b.eng.QueryFilterEach(series, minT, maxT, minV, maxV, fn)
}

func (b engineBackend) Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error) {
	return b.eng.Downsample(series, minT, maxT, window)
}

func (b engineBackend) Aggregate(series string, minT, maxT int64) (engine.Bucket, error) {
	return b.eng.Aggregate(series, minT, maxT)
}

func (b engineBackend) Series() ([]string, error) { return b.eng.Series(), nil }

func (b engineBackend) SeriesKind(series string) (string, error) {
	return b.eng.SeriesKind(series), nil
}

func (b engineBackend) SeriesStats() ([]engine.SeriesStat, error) {
	return b.eng.SeriesStats(), nil
}

func (b engineBackend) Stats() (engine.Stats, error) { return b.eng.Stats(), nil }

func (b engineBackend) Flush() error { return b.eng.Flush() }

func (b engineBackend) CompactAll() (engine.CompactStats, error) {
	return b.eng.CompactWith(nil)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
