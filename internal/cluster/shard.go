package cluster

import (
	"errors"
	"net/http"
	"time"

	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// Shard is one storage lane of the cluster: a server.Backend that can also
// compact, plus what the Router needs to name, probe and release it. The
// Router only talks to this interface, so in-process engines and remote
// bosservers mix freely in one shard map.
type Shard interface {
	server.Backend
	server.Compactor
	// Target identifies the shard for stats and error messages (the data
	// dir of a local shard, the base URL of a remote one).
	Target() string
	// Health returns nil when the shard can serve.
	Health() error
	// Close releases resources the shard owns (a local shard's engine and
	// maintainer; a no-op for remote shards, whose server owns its engine).
	Close() error
}

// LocalShard is an in-process engine shard: its own data dir, WAL, flush
// pipeline, and optionally its own maintenance loop. It serves the Backend
// methods through the single-engine backend.
type LocalShard struct {
	server.Backend
	eng   *engine.Engine
	maint *maintain.Maintainer
	dir   string
}

// NewLocalShard wraps an open engine. maint may be nil; when set, the caller
// has started it and Close stops it before closing the engine.
func NewLocalShard(eng *engine.Engine, maint *maintain.Maintainer, dir string) *LocalShard {
	return &LocalShard{Backend: server.NewEngineBackend(eng), eng: eng, maint: maint, dir: dir}
}

// Engine exposes the underlying engine (tests and the rebalance planner).
func (s *LocalShard) Engine() *engine.Engine { return s.eng }

func (s *LocalShard) Target() string { return s.dir }

// CompactAll runs a full compaction through the shard's maintainer when it
// has one, so the compaction repacks adaptively when configured and counts
// in its stats.
func (s *LocalShard) CompactAll() (engine.CompactStats, error) {
	if s.maint != nil {
		return s.maint.CompactAll()
	}
	return s.eng.CompactWith(nil)
}

// Health of an in-process shard is the process's health.
func (s *LocalShard) Health() error { return nil }

func (s *LocalShard) Close() error {
	if s.maint != nil {
		s.maint.Stop()
	}
	return s.eng.Close()
}

// RemoteShard serves a shard over the HTTP API through the typed client:
// writes go out in the ingest line protocol, scans and windows come back as
// the /query point stream and the rest as JSON, so a remote shard is just
// another bosserver.
type RemoteShard struct {
	c    *server.Client
	addr string
}

// NewRemoteShard builds a shard over a bosserver at addr. Client options
// (e.g. server.WithRetry) pass through; a nil hc gets a connection-pooled
// default sized for scatter-gather fan-out.
func NewRemoteShard(addr string, hc *http.Client, opts ...server.ClientOption) *RemoteShard {
	if hc == nil {
		hc = defaultRemoteHTTPClient()
	}
	return &RemoteShard{c: server.NewClient(addr, hc, opts...), addr: addr}
}

func (s *RemoteShard) Target() string { return s.addr }

// notFound reports a 404 — for query paths, "this shard has no such series",
// which scatter-gather treats as an empty result rather than a failure.
func notFound(err error) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

func (s *RemoteShard) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	if len(ints) == 0 && len(floats) == 0 {
		return nil
	}
	_, err := s.c.IngestBatch(ints, floats)
	return err
}

func (s *RemoteShard) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	err := s.c.QueryEach(series, minT, maxT, fn)
	if notFound(err) {
		return nil
	}
	return err
}

func (s *RemoteShard) QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error) {
	pts, err := s.c.QueryFloats(series, minT, maxT)
	if notFound(err) {
		return nil, nil
	}
	return pts, err
}

func (s *RemoteShard) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	err := s.c.QueryFilterEach(series, minT, maxT, minV, maxV, fn)
	if notFound(err) {
		return nil
	}
	return err
}

// Aggregate folds the remote /agg answer into a bucket anchored at minT, the
// same start a local shard's single-bucket aggregate reports.
func (s *RemoteShard) Aggregate(series string, minT, maxT int64) (engine.Bucket, error) {
	resp, err := s.c.Agg(series, minT, maxT)
	if notFound(err) {
		return engine.Bucket{Start: minT}, nil
	}
	if err != nil {
		return engine.Bucket{}, err
	}
	return engine.Bucket{Start: minT, Count: resp.Count, Min: resp.Min, Max: resp.Max, Sum: resp.Sum}, nil
}

// Downsample reads the remote windows as the point stream's 'w' frames
// (/query?window=). The window is checked here, as a local shard's engine
// checks it, because the remote answers an unknown series with a 404 before
// it looks at the window.
func (s *RemoteShard) Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error) {
	if window <= 0 {
		return nil, engine.ErrBadWindow
	}
	var out []engine.Bucket
	err := s.c.Window(series, minT, maxT, window, func(b server.Bucket) error {
		out = append(out, b)
		return nil
	})
	if notFound(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *RemoteShard) Series() ([]string, error) { return s.c.Series() }

func (s *RemoteShard) SeriesKind(series string) (string, error) {
	return s.c.SeriesKind(series)
}

func (s *RemoteShard) SeriesStats() ([]engine.SeriesStat, error) {
	st, err := s.c.Stats()
	if err != nil {
		return nil, err
	}
	return st.Series, nil
}

func (s *RemoteShard) Stats() (engine.Stats, error) {
	st, err := s.c.Stats()
	if err != nil {
		return engine.Stats{}, err
	}
	out := engine.Stats{
		Files:             st.Files,
		MemPoints:         st.MemPoints,
		DiskPoints:        st.DiskPoints,
		DiskBytes:         st.DiskBytes,
		SeriesCount:       st.SeriesCount,
		Compactions:       st.Compactions,
		CompactedFiles:    st.CompactedFiles,
		CompactedBytesIn:  st.CompactedBytesIn,
		CompactedBytesOut: st.CompactedBytesOut,
		WALGroups:         st.WALGroups,
		WALRecords:        st.WALRecords,
	}
	out.Cache = st.Cache.Stats
	out.Pushdown = st.Pushdown
	return out, nil
}

func (s *RemoteShard) CompactAll() (engine.CompactStats, error) {
	resp, err := s.c.Compact("full")
	if err != nil {
		return engine.CompactStats{}, err
	}
	return engine.CompactStats{
		Files:         resp.Files,
		Series:        resp.Series,
		Points:        resp.Points,
		BytesBefore:   resp.BytesBefore,
		BytesAfter:    resp.BytesAfter,
		SeriesPackers: resp.SeriesPackers,
	}, nil
}

// Flush is a no-op: the remote bosserver owns its engine's flush lifecycle
// (its ingest path acknowledges only WAL-durable writes, and it flushes on
// its own shutdown).
func (s *RemoteShard) Flush() error { return nil }

func (s *RemoteShard) Health() error { return s.c.Health() }

// Close is a no-op: the remote server owns its engine.
func (s *RemoteShard) Close() error { return nil }

// defaultRemoteHTTPClient pools connections for scatter-gather fan-out.
func defaultRemoteHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}}
}
