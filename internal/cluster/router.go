package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/pushdown"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// Router consistent-hashes series across the manifest's shards and
// implements internal/server's Backend interface, so an HTTP server mounted
// on a Router serves the exact API a single engine does.
//
// Placement: every series is owned by exactly one shard (Ring.Owner), and
// ingest routes there. Reads, however, scatter to every shard and merge by
// timestamp — after the shard map grows, a series' history may still sit on
// its old shard until the rebalance moves it, and scatter-gather reads stay
// correct through that window (the owner shard wins timestamp collisions).
//
// The Router is immutable after New: no locks, safe for concurrent use.
type Router struct {
	man    *Manifest
	ring   *Ring
	shards []Shard
}

// The Router is a full sharded backend for internal/server: queries, grouped
// ingest, compaction, and per-shard health all route through it.
var (
	_ server.Backend       = (*Router)(nil)
	_ server.Compactor     = (*Router)(nil)
	_ server.ShardStatuser = (*Router)(nil)
)

// New wires a manifest to its shard backends. len(shards) must equal the
// manifest's shard count, index i serving manifest shard ID i.
func New(man *Manifest, shards []Shard) (*Router, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if len(shards) != len(man.Shards) {
		return nil, fmt.Errorf("cluster: %d shard backends for a %d-shard map", len(shards), len(man.Shards))
	}
	return &Router{man: man, ring: man.Ring(), shards: shards}, nil
}

// A remote shard opened from a shard map retries a failed request up to
// remoteAttempts times in all, backing off from remoteBackoff.
const (
	remoteAttempts = 3
	remoteBackoff  = 50 * time.Millisecond
)

// Open opens every shard of a manifest and routes over them. A local shard
// gets its own engine under root, sharing opt (Dir is set per shard), and,
// when maint is set, its own maintainer, started. A remote shard gets a
// retrying client. Validate rejects any other backend. On any failure the
// shards already open are closed.
func Open(man *Manifest, root string, opt engine.Options, maint *maintain.Config) (*Router, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	shards := make([]Shard, 0, len(man.Shards))
	for _, spec := range man.Shards {
		if spec.Backend == BackendRemote {
			shards = append(shards, NewRemoteShard(spec.Addr, nil, server.WithRetry(remoteAttempts, remoteBackoff)))
			continue
		}
		o := opt
		o.Dir = ResolveDir(root, spec.Dir)
		eng, err := engine.Open(o)
		if err != nil {
			for _, s := range shards {
				s.Close() // best-effort unwind after a failed open
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", spec.ID, err)
		}
		var mnt *maintain.Maintainer
		if maint != nil {
			mnt = maintain.New(eng, *maint)
			mnt.Start()
		}
		shards = append(shards, NewLocalShard(eng, mnt, o.Dir))
	}
	return New(man, shards)
}

// Manifest returns the shard map the router serves.
func (r *Router) Manifest() *Manifest { return r.man }

// Shards returns the shard backends, index = shard ID.
func (r *Router) Shards() []Shard { return r.shards }

// Owner returns the shard ID that owns a series.
func (r *Router) Owner(series string) int { return r.ring.Owner(series) }

// Close closes every shard (local engines flush and release; remote shards
// are no-ops), joining errors.
func (r *Router) Close() error {
	return r.each(func(_ int, sh Shard) error { return sh.Close() })
}

// gather calls fn on every shard concurrently and returns each shard's
// answer and error, indexed by shard ID. Every Router call that answers
// whole fans out through it; scans stream through scatterMerge instead.
func gather[T any](shards []Shard, fn func(i int, sh Shard) (T, error)) ([]T, []error) {
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for i, sh := range shards {
		go func() {
			defer wg.Done()
			out[i], errs[i] = fn(i, sh)
		}()
	}
	wg.Wait()
	return out, errs
}

// each calls fn on every shard concurrently and joins the errors.
func (r *Router) each(fn func(i int, sh Shard) error) error {
	_, errs := gather(r.shards, func(i int, sh Shard) (struct{}, error) {
		return struct{}{}, fn(i, sh)
	})
	return errors.Join(errs...)
}

// InsertGrouped splits one ingest request by owning shard — each series
// routed exactly once — and commits the per-shard slices in parallel. An
// error on any shard fails the request (partial application is safe:
// replays are last-write-wins), but every shard still gets its slice, so one
// slow or broken shard cannot hold another shard's data hostage.
func (r *Router) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	perInts, perFloats := byOwner(r.ring, len(r.shards), ints), byOwner(r.ring, len(r.shards), floats)
	return r.each(func(i int, sh Shard) error {
		if perInts[i] == nil && perFloats[i] == nil {
			return nil
		}
		return sh.InsertGrouped(perInts[i], perFloats[i])
	})
}

// byOwner splits a batch by owning shard; a shard that owns none of its
// series gets nil.
func byOwner[V int64 | float64](ring *Ring, n int, batch map[string][]tsfile.Sample[V]) []map[string][]tsfile.Sample[V] {
	out := make([]map[string][]tsfile.Sample[V], n)
	for name, pts := range batch {
		i := ring.Owner(name)
		if out[i] == nil {
			out[i] = map[string][]tsfile.Sample[V]{}
		}
		out[i][name] = pts
	}
	return out
}

// streamPage is the point-batch size shard streams hand to the merge; big
// enough to amortize channel hops, small enough to bound buffered memory
// (shards × buffered pages × page size).
const streamPage = 2048

// errAbortStream tells a shard producer the merge stopped consuming; it is
// never surfaced to callers.
var errAbortStream = errors.New("cluster: stream aborted")

// shardStream is one shard's side of a scatter-gather scan: a producer
// goroutine batches the shard's points into pages; err is valid once ch
// closes. The consuming side is a Merge source, whose runs read the pages in
// place and may span several of them.
type shardStream[V int64 | float64] struct {
	ch   chan []tsfile.Sample[V]
	err  error
	page tsfile.SliceCursor[V]
}

func (s *shardStream[V]) Run(dst []tsfile.Sample[V], bound int64) ([]tsfile.Sample[V], tsfile.Sample[V], bool) {
	for {
		var p tsfile.Sample[V]
		var ok bool
		if dst, p, ok = s.page.Run(dst, bound); ok {
			return dst, p, true
		}
		page, open := <-s.ch
		if !open {
			return dst, p, false
		}
		s.page = *tsfile.NewSliceCursor(page)
	}
}

func (s *shardStream[V]) Err() error { return s.err }

// Release does nothing: the pages are the stream's own, and scatterMerge's
// abort stops the producers.
func (s *shardStream[V]) Release() {}

// mergeOrder lists shard indices in the order Merge takes its sources, least
// preferred first: the non-owners by ascending ID, then the owner. The owner
// thus wins timestamp collisions, then the highest shard ID.
func mergeOrder(owner, n int) []int {
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i != owner {
			order = append(order, i)
		}
	}
	return append(order, owner)
}

// QueryEach scatter-gathers a range scan: every shard streams its points
// concurrently and the merge emits them in time order. On timestamp
// collisions across shards (possible only for series mid-move between
// shards) the owner shard's point wins, then the highest shard ID —
// deterministic either way. A shard error aborts the whole scan and is
// returned; fn errors abort and return likewise.
func (r *Router) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	return scatterMerge(r.shards, r.ring.Owner(series), fn, func(sh Shard, emit func(tsfile.Point) error) error {
		return sh.QueryEach(series, minT, maxT, emit)
	})
}

// QueryFilterEach scatter-gathers a value-filtered scan with the same merge
// as QueryEach. The filter runs on each shard (that is the point: shards
// answer from chunk statistics and partial decode), so mid-move a shadowed
// stale point can pass a filter the owner's fresher point fails — the same
// documented window as Downsample's per-shard aggregation, exact once the
// rebalance completes.
func (r *Router) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	return scatterMerge(r.shards, r.ring.Owner(series), fn, func(sh Shard, emit func(tsfile.Point) error) error {
		return sh.QueryFilterEach(series, minT, maxT, minV, maxV, emit)
	})
}

// scatterMerge runs query on every shard concurrently and merges the streams
// into fn in time order through tsfile.Merge; the owner shard wins timestamp
// collisions, then the highest shard ID. A shard error aborts the merge and
// is returned.
func scatterMerge[V int64 | float64](shards []Shard, owner int, fn func(tsfile.Sample[V]) error, query func(sh Shard, emit func(tsfile.Sample[V]) error) error) error {
	done := make(chan struct{})
	var closeDone sync.Once
	abort := func() { closeDone.Do(func() { close(done) }) }
	defer abort()

	streams := make([]*shardStream[V], len(shards))
	for i, sh := range shards {
		st := &shardStream[V]{ch: make(chan []tsfile.Sample[V], 4)}
		streams[i] = st
		go func(sh Shard) {
			defer close(st.ch)
			page := make([]tsfile.Sample[V], 0, streamPage)
			err := query(sh, func(p tsfile.Sample[V]) error {
				page = append(page, p)
				if len(page) == streamPage {
					select {
					case st.ch <- page:
					case <-done:
						return errAbortStream
					}
					page = make([]tsfile.Sample[V], 0, streamPage)
				}
				return nil
			})
			if err == nil && len(page) > 0 {
				select {
				case st.ch <- page:
				case <-done:
				}
			}
			if err != nil && !errors.Is(err, errAbortStream) {
				st.err = err
			}
		}(sh)
	}

	srcs := make([]tsfile.Cursor[V], 0, len(streams))
	for _, i := range mergeOrder(owner, len(streams)) {
		srcs = append(srcs, streams[i])
	}
	m := tsfile.NewMerge(srcs...)
	page := make([]tsfile.Sample[V], 0, streamPage)
	for more := true; more; {
		page, more = m.Fill(page[:0])
		for _, p := range page {
			if err := fn(p); err != nil {
				return err
			}
		}
	}
	return m.Err()
}

// QueryFloats scatter-gathers a float range scan through the same merge as
// QueryEach (owner wins, then highest shard ID).
func (r *Router) QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error) {
	out := []tsfile.FloatPoint{}
	err := scatterMerge(r.shards, r.ring.Owner(series), func(p tsfile.FloatPoint) error {
		out = append(out, p)
		return nil
	}, func(sh Shard, emit func(tsfile.FloatPoint) error) error {
		pts, err := sh.QueryFloats(series, minT, maxT)
		if err != nil {
			return err
		}
		for _, p := range pts {
			if err := emit(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Aggregate fans the whole-range fold out per shard and folds the single
// buckets through the engine's window accumulator (empty shards contribute
// nothing, so a lone-shard answer passes through untouched). Mid-move
// double-counting matches Downsample's documented tradeoff.
func (r *Router) Aggregate(series string, minT, maxT int64) (engine.Bucket, error) {
	parts, errs := gather(r.shards, func(_ int, sh Shard) (engine.Bucket, error) {
		return sh.Aggregate(series, minT, maxT)
	})
	if err := errors.Join(errs...); err != nil {
		return engine.Bucket{}, err
	}
	w := pushdown.NewWindows(minT, 0)
	for _, b := range parts {
		w.AddBucket(b)
	}
	if sum := w.Buckets(); len(sum) > 0 {
		return sum[0], nil
	}
	return engine.Bucket{Start: minT}, nil
}

// Downsample fans the windowed aggregation out per shard and merges buckets
// by window start. In steady state a series lives on one shard and the merge
// is a pass-through; mid-move, points double-counted by two shards would
// inflate counts until the rebalance completes — the documented tradeoff for
// pushing aggregation down to the shards instead of re-streaming raw points.
func (r *Router) Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error) {
	if window <= 0 {
		return nil, engine.ErrBadWindow
	}
	parts, errs := gather(r.shards, func(_ int, sh Shard) ([]engine.Bucket, error) {
		return sh.Downsample(series, minT, maxT, window)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	w := pushdown.NewWindows(minT, window)
	for _, buckets := range parts {
		for _, b := range buckets {
			w.AddBucket(b)
		}
	}
	return w.Buckets(), nil
}

// Series unions every shard's series names, sorted.
func (r *Router) Series() ([]string, error) {
	parts, errs := gather(r.shards, func(_ int, sh Shard) ([]string, error) { return sh.Series() })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := []string{}
	for _, names := range parts {
		out = append(out, names...)
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}

// SeriesKind asks every shard; the owner's answer wins, any other non-empty
// answer covers a series mid-move. Shard errors are ignored as long as some
// shard knows the series — a healthy answer beats a degraded unknown.
func (r *Router) SeriesKind(series string) (string, error) {
	kinds, errs := gather(r.shards, func(_ int, sh Shard) (string, error) { return sh.SeriesKind(series) })
	if owner := r.ring.Owner(series); errs[owner] == nil && kinds[owner] != "" {
		return kinds[owner], nil
	}
	for i, k := range kinds {
		if errs[i] == nil && k != "" {
			return k, nil
		}
	}
	return "", errors.Join(errs...)
}

// SeriesStats merges per-series footprints across shards (summed sizes,
// widened time bounds), sorted by name.
func (r *Router) SeriesStats() ([]engine.SeriesStat, error) {
	results, errs := gather(r.shards, func(_ int, sh Shard) ([]engine.SeriesStat, error) { return sh.SeriesStats() })
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	merged := map[string]engine.SeriesStat{}
	for _, stats := range results {
		for _, st := range stats {
			cur, ok := merged[st.Name]
			if !ok {
				merged[st.Name] = st
				continue
			}
			cur.MemPoints += st.MemPoints
			cur.DiskPoints += st.DiskPoints
			cur.DiskBytes += st.DiskBytes
			cur.Chunks += st.Chunks
			if st.Kind == "float" {
				cur.Kind = "float"
			}
			if st.MinT < cur.MinT {
				cur.MinT = st.MinT
			}
			if st.MaxT > cur.MaxT {
				cur.MaxT = st.MaxT
			}
			merged[st.Name] = cur
		}
	}
	out := make([]engine.SeriesStat, 0, len(merged))
	for _, st := range merged {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stats rolls every shard's footprint up into one engine.Stats. SeriesCount
// sums per-shard counts (exact in steady state, where a series lives on one
// shard).
func (r *Router) Stats() (engine.Stats, error) {
	stats, errs := gather(r.shards, func(_ int, sh Shard) (engine.Stats, error) { return sh.Stats() })
	if err := errors.Join(errs...); err != nil {
		return engine.Stats{}, err
	}
	var sum engine.Stats
	for _, st := range stats {
		sum.Files += st.Files
		sum.MemPoints += st.MemPoints
		sum.DiskPoints += st.DiskPoints
		sum.DiskBytes += st.DiskBytes
		sum.SeriesCount += st.SeriesCount
		sum.Compactions += st.Compactions
		sum.CompactedFiles += st.CompactedFiles
		sum.CompactedBytesIn += st.CompactedBytesIn
		sum.CompactedBytesOut += st.CompactedBytesOut
		sum.WALGroups += st.WALGroups
		sum.WALRecords += st.WALRecords
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Evictions += st.Cache.Evictions
		sum.Cache.Invalidations += st.Cache.Invalidations
		sum.Cache.Declined += st.Cache.Declined
		sum.Cache.Entries += st.Cache.Entries
		sum.Cache.Bytes += st.Cache.Bytes
		sum.Cache.MaxBytes += st.Cache.MaxBytes
		sum.Pushdown.Add(st.Pushdown)
	}
	return sum, nil
}

// CompactAll compacts every shard in parallel and sums the results.
func (r *Router) CompactAll() (engine.CompactStats, error) {
	stats, errs := gather(r.shards, func(_ int, sh Shard) (engine.CompactStats, error) { return sh.CompactAll() })
	if err := errors.Join(errs...); err != nil {
		return engine.CompactStats{}, err
	}
	var sum engine.CompactStats
	for _, st := range stats {
		sum.Files += st.Files
		sum.Series += st.Series
		sum.Points += st.Points
		sum.BytesBefore += st.BytesBefore
		sum.BytesAfter += st.BytesAfter
		for name, packer := range st.SeriesPackers {
			if sum.SeriesPackers == nil {
				sum.SeriesPackers = map[string]string{}
			}
			sum.SeriesPackers[name] = packer
		}
	}
	return sum, nil
}

// Flush flushes every shard in parallel.
func (r *Router) Flush() error {
	return r.each(func(_ int, sh Shard) error { return sh.Flush() })
}

// ShardStatuses reports per-shard health and footprint for /stats and
// /healthz. A shard that fails its health or stats probe reports unhealthy
// with the error; the others report normally. Stats is asked only of a
// healthy shard.
func (r *Router) ShardStatuses() []server.ShardStatus {
	out, _ := gather(r.shards, func(i int, sh Shard) (server.ShardStatus, error) {
		st := server.ShardStatus{ID: i, Backend: r.man.Shards[i].Backend, Target: sh.Target()}
		err := sh.Health()
		var es engine.Stats
		if err == nil {
			es, err = sh.Stats()
		}
		if err != nil {
			st.Error = err.Error()
			return st, nil
		}
		st.Healthy = true
		st.SeriesCount = es.SeriesCount
		st.MemPoints = es.MemPoints
		st.DiskPoints = es.DiskPoints
		st.DiskBytes = es.DiskBytes
		st.Files = es.Files
		st.CacheHits = es.Cache.Hits
		st.CacheMisses = es.Cache.Misses
		st.WALGroups = es.WALGroups
		st.WALRecords = es.WALRecords
		return st, nil
	})
	return out
}
