package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bos/internal/engine"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// mount serves a backend over httptest and returns its typed client. The
// same HTTP layer fronts the single engine and the router, so comparing
// client responses compares the full serving stack byte for byte.
func mount(t *testing.T, be server.Backend) (*server.Client, func()) {
	t.Helper()
	api, err := server.New(server.Options{Backend: be, PackerName: "BOS-B"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	cleanup := func() {
		ts.Close()
		if err := api.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	return server.NewClient(ts.URL, ts.Client()), cleanup
}

// testWorkload builds deterministic ingest payloads: intN integer series and
// floatN float series with shuffled timestamps and cross-payload duplicate
// timestamps (so last-write-wins ordering is exercised).
func testWorkload(intN, floatN, pointsPer int) (payloads [][]byte, intSeries, floatSeries []string) {
	rng := rand.New(rand.NewSource(42))
	var a, b bytes.Buffer
	for i := 0; i < intN; i++ {
		name := fmt.Sprintf("root.fleet.dev%02d.cnt", i)
		intSeries = append(intSeries, name)
		perm := rng.Perm(pointsPer)
		for _, ti := range perm {
			fmt.Fprintf(&a, "%s,%d,%d\n", name, ti, rng.Int63n(1<<20)-1<<10)
		}
		// Second payload overwrites a handful of timestamps.
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "%s,%d,%d\n", name, rng.Intn(pointsPer), rng.Int63n(1000))
		}
	}
	for i := 0; i < floatN; i++ {
		name := fmt.Sprintf("root.fleet.dev%02d.temp", i)
		floatSeries = append(floatSeries, name)
		for _, ti := range rng.Perm(pointsPer) {
			fmt.Fprintf(&a, "%s,%d,%.4f\n", name, ti, rng.NormFloat64()*40)
		}
		for j := 0; j < 5; j++ {
			fmt.Fprintf(&b, "%s,%d,%.4f\n", name, rng.Intn(pointsPer), rng.NormFloat64())
		}
	}
	return [][]byte{a.Bytes(), b.Bytes()}, intSeries, floatSeries
}

// compareBackends asserts the cluster client answers byte-identically to the
// single-engine client across the read API.
func compareBackends(t *testing.T, single, clustered *server.Client, intSeries, floatSeries []string, pointsPer int) {
	t.Helper()
	wantNames, err := single.Series()
	if err != nil {
		t.Fatal(err)
	}
	gotNames, err := clustered.Series()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Fatalf("series lists differ:\nsingle  %v\ncluster %v", wantNames, gotNames)
	}
	ranges := [][2]int64{{0, int64(pointsPer)}, {3, 17}, {int64(pointsPer / 2), int64(pointsPer)}}
	for _, name := range append(append([]string{}, intSeries...), floatSeries...) {
		for _, r := range ranges {
			want, err := single.QueryRaw(name, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := clustered.QueryRaw(name, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s [%d,%d]: CSV differs\nsingle:\n%scluster:\n%s", name, r[0], r[1], want, got)
			}
			// The typed reads decode the point stream instead.
			wantF, err := single.QueryFloats(name, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			gotF, err := clustered.QueryFloats(name, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantF, gotF) {
				t.Fatalf("%s [%d,%d]: QueryFloats differs\nsingle  %v\ncluster %v", name, r[0], r[1], wantF, gotF)
			}
		}
		wantKind, err := single.SeriesKind(name)
		if err != nil {
			t.Fatal(err)
		}
		gotKind, err := clustered.SeriesKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if wantKind != gotKind {
			t.Fatalf("%s: kind %q vs %q", name, wantKind, gotKind)
		}
	}
	for _, name := range intSeries {
		each := func(c *server.Client) []tsfile.Point {
			var out []tsfile.Point
			err := c.QueryEach(name, 0, int64(pointsPer), func(p tsfile.Point) error {
				out = append(out, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		if wantE, gotE := each(single), each(clustered); !reflect.DeepEqual(wantE, gotE) {
			t.Fatalf("%s: QueryEach differs\nsingle  %v\ncluster %v", name, wantE, gotE)
		}
		wantAgg, err := single.Agg(name, 0, int64(pointsPer))
		if err != nil {
			t.Fatal(err)
		}
		gotAgg, err := clustered.Agg(name, 0, int64(pointsPer))
		if err != nil {
			t.Fatal(err)
		}
		if wantAgg != gotAgg {
			t.Fatalf("%s: agg %+v vs %+v", name, wantAgg, gotAgg)
		}
		wantDS, err := single.Downsample(name, 0, int64(pointsPer), 7)
		if err != nil {
			t.Fatal(err)
		}
		gotDS, err := clustered.Downsample(name, 0, int64(pointsPer), 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantDS, gotDS) {
			t.Fatalf("%s: downsample %+v vs %+v", name, wantDS, gotDS)
		}
		// The streaming windowed pushdown (/query?window=) must agree with
		// /downsample and across backends.
		collect := func(c *server.Client) []server.Bucket {
			var out []server.Bucket
			err := c.Window(name, 0, int64(pointsPer), 7, func(b server.Bucket) error {
				out = append(out, b)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		wantW, gotW := collect(single), collect(clustered)
		if !reflect.DeepEqual(wantW, gotW) {
			t.Fatalf("%s: window %+v vs %+v", name, wantW, gotW)
		}
		if len(wantW) != len(wantDS) {
			t.Fatalf("%s: window %d buckets vs downsample %d", name, len(wantW), len(wantDS))
		}
		for i, b := range wantW {
			d := wantDS[i]
			if b.Start != d.Start || b.Count != d.Count || b.Min != d.Min || b.Max != d.Max || b.Sum != d.Sum {
				t.Fatalf("%s: window bucket %d %+v != downsample %+v", name, i, b, d)
			}
		}
		// Value-filtered scans must agree across backends too.
		filt := func(c *server.Client) []string {
			var out []string
			err := c.QueryFilterEach(name, 0, int64(pointsPer), -1<<9, 1<<16, func(p tsfile.Point) error {
				out = append(out, fmt.Sprintf("%d,%d", p.T, p.V))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		wantF, gotF := filt(single), filt(clustered)
		if !reflect.DeepEqual(wantF, gotF) {
			t.Fatalf("%s: filtered scan differs\nsingle  %v\ncluster %v", name, wantF, gotF)
		}
	}
}

// shardInput stands up the shards of a Router over a data root: reopened
// over the same root, they serve what was written before.
type shardInput struct {
	name string
	// open returns the Router, a flush of every shard to disk and a close
	// of every shard.
	open func(t *testing.T, root string) (r *Router, flush, close func() error)
}

// localShards are n in-process engine shards.
func localShards(name string, n int) shardInput {
	return shardInput{name: name, open: func(t *testing.T, root string) (*Router, func() error, func() error) {
		router, err := Open(DefaultManifest(n), root, engine.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return router, router.Flush, router.Close
	}}
}

// remoteShards are four bosservers, each server.New over its own engine
// behind httptest, reached through RemoteShard: every read of the Router
// decodes their point streams.
var remoteShards = shardInput{name: "remote", open: func(t *testing.T, root string) (*Router, func() error, func() error) {
	var (
		shards  []Shard
		engines []*engine.Engine
		closers []func() error
	)
	for i := 0; i < 4; i++ {
		eng, err := engine.Open(engine.Options{Dir: filepath.Join(root, fmt.Sprintf("shard-%03d", i))})
		if err != nil {
			t.Fatal(err)
		}
		api, err := server.New(server.Options{Backend: server.NewEngineBackend(eng)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(api.Handler())
		shards = append(shards, NewRemoteShard(ts.URL, ts.Client()))
		engines = append(engines, eng)
		closers = append(closers, func() error {
			ts.Close()
			return errors.Join(api.Close(), eng.Close())
		})
	}
	router, err := New(DefaultManifest(4), shards)
	if err != nil {
		t.Fatal(err)
	}
	flush := func() error {
		for _, eng := range engines {
			if err := eng.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	closeAll := func() error {
		var errs []error
		for _, c := range closers {
			errs = append(errs, c())
		}
		return errors.Join(errs...)
	}
	return router, flush, closeAll
}}

// The cluster acceptance test: a 4-shard cluster answers every read
// byte-identically to a single engine fed the same ingest — through fresh
// writes, full compaction, and a close/reopen of every shard — whether its
// shards are in-process engines or remote bosservers. A one-shard Router
// takes the same scatter-gather paths with a single source and must answer
// identically too.
func TestRouterMatchesSingleEngine(t *testing.T) {
	for _, in := range []shardInput{localShards("local", 4), remoteShards, localShards("one-shard", 1)} {
		t.Run(in.name, func(t *testing.T) { routerMatchesSingleEngine(t, in) })
	}
}

func routerMatchesSingleEngine(t *testing.T, in shardInput) {
	const pointsPer = 60
	payloads, intSeries, floatSeries := testWorkload(12, 6, pointsPer)

	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	single, singleDone := mount(t, server.NewEngineBackend(eng))
	defer singleDone()

	root := t.TempDir()
	router, flushShards, closeShards := in.open(t, root)
	clustered, clusterDone := mount(t, router)

	for _, p := range payloads {
		if _, err := single.IngestLines(p); err != nil {
			t.Fatal(err)
		}
		if _, err := clustered.IngestLines(p); err != nil {
			t.Fatal(err)
		}
		// Flush after each round so both sides hold multiple disk files and
		// the full compaction below has real merging to do.
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := flushShards(); err != nil {
			t.Fatal(err)
		}
	}
	compareBackends(t, single, clustered, intSeries, floatSeries, pointsPer)

	// Windows over a series no shard holds are empty, and over a float
	// series an error, as on one engine. Remote shards read them as 'w'
	// frames, whose 404 and 400 answers mean these two.
	if got, err := router.Downsample("root.fleet.none", 0, pointsPer, 7); err != nil || len(got) != 0 {
		t.Fatalf("windows over an unknown series: %v, %v; want none", got, err)
	}
	if _, err := eng.Downsample(floatSeries[0], 0, pointsPer, 7); err == nil {
		t.Fatalf("%s: one engine's windows over a float series: no error", floatSeries[0])
	}
	if got, err := router.Downsample(floatSeries[0], 0, pointsPer, 7); err == nil {
		t.Fatalf("%s: windows over a float series: %v, no error", floatSeries[0], got)
	}

	// Every series must be placed on its ring owner.
	for i, sh := range router.Shards() {
		names, err := sh.Series()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if own := router.Owner(name); own != i {
				t.Fatalf("series %q on shard %d, owner is %d", name, i, own)
			}
		}
	}

	// Full compaction on both sides must not change any answer.
	if _, err := single.Compact("full"); err != nil {
		t.Fatal(err)
	}
	cr, err := clustered.Compact("full")
	if err != nil {
		t.Fatal(err)
	}
	if cr.Series == 0 || cr.Points == 0 {
		t.Fatalf("cluster compaction compacted nothing: %+v", cr)
	}
	compareBackends(t, single, clustered, intSeries, floatSeries, pointsPer)

	// Cluster health and per-shard stats.
	if err := clustered.Health(); err != nil {
		t.Fatal(err)
	}
	st, err := clustered.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != len(router.Shards()) {
		t.Fatalf("stats shards = %d, want %d", len(st.Shards), len(router.Shards()))
	}
	var shardPoints int
	for _, sh := range st.Shards {
		if !sh.Healthy {
			t.Fatalf("shard %d unhealthy: %s", sh.ID, sh.Error)
		}
		shardPoints += sh.MemPoints + sh.DiskPoints
	}
	if total := st.MemPoints + st.DiskPoints; shardPoints != total {
		t.Fatalf("per-shard points %d != rolled-up total %d", shardPoints, total)
	}

	// Close every shard and reopen the cluster from disk: WAL replay and
	// chunk reads must still answer identically.
	clusterDone()
	if err := closeShards(); err != nil {
		t.Fatal(err)
	}
	router2, _, closeShards2 := in.open(t, root)
	defer func() {
		if err := closeShards2(); err != nil {
			t.Errorf("shards close: %v", err)
		}
	}()
	clustered2, cluster2Done := mount(t, router2)
	defer cluster2Done()
	compareBackends(t, single, clustered2, intSeries, floatSeries, pointsPer)
}

// TestRouterConcurrentIngestQuery drives a 4-shard Router the way a
// deployment does: 16 HTTP writers, each owning four series (the last one
// float), post 500-point batches while two readers query and the shards
// flush under the load. No ingest may fail, every read must come back in
// range and in time order, and afterwards every series must read back
// identical to a single engine fed the same batches.
func TestRouterConcurrentIngestQuery(t *testing.T) {
	const (
		writers   = 16
		perWriter = 4 // series per writer
		batch     = 500
		rounds    = 2 // batches per series; each overwrites half the last
		readers   = 2
		pointsPer = batch * (rounds + 1) / 2
	)
	rng := rand.New(rand.NewSource(1))
	var intSeries, floatSeries []string
	posts := make([][][]byte, writers) // each writer's batches, in order
	for w := range posts {
		names := make([]string, perWriter)
		for s := range names {
			names[s] = fmt.Sprintf("root.load.w%02d.s%d", w, s)
			if s == perWriter-1 {
				floatSeries = append(floatSeries, names[s])
			} else {
				intSeries = append(intSeries, names[s])
			}
		}
		for r := 0; r < rounds; r++ {
			for s, name := range names {
				var b bytes.Buffer
				for i := 0; i < batch; i++ {
					ts := r*batch/2 + i
					if s == perWriter-1 {
						fmt.Fprintf(&b, "%s,%d,%.3f\n", name, ts, rng.NormFloat64()*40)
						continue
					}
					v := int64(rng.NormFloat64()*50) + 1000
					if rng.Intn(100) == 0 {
						v += rng.Int63n(1 << 20)
					}
					fmt.Fprintf(&b, "%s,%d,%d\n", name, ts, v)
				}
				posts[w] = append(posts[w], b.Bytes())
			}
		}
	}

	// A small flush threshold makes every shard flush while writers post
	// and readers scan.
	router, err := Open(DefaultManifest(4), t.TempDir(), engine.Options{FlushThreshold: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := router.Close(); err != nil {
			t.Errorf("router close: %v", err)
		}
	}()
	clustered, clusterDone := mount(t, router)
	defer clusterDone()

	var writeWG, readWG sync.WaitGroup
	for _, batches := range posts {
		writeWG.Add(1)
		go func(batches [][]byte) {
			defer writeWG.Done()
			for _, b := range batches {
				if _, err := clustered.IngestLines(b); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(batches)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func(rng *rand.Rand) {
			defer readWG.Done()
			for {
				lo := rng.Int63n(pointsPer)
				hi := lo + rng.Int63n(256)
				var ts []int64
				var err error
				if rng.Intn(4) == 0 {
					var pts []tsfile.FloatPoint
					pts, err = clustered.QueryFloats(floatSeries[rng.Intn(len(floatSeries))], lo, hi)
					for _, p := range pts {
						ts = append(ts, p.T)
					}
				} else {
					var pts []tsfile.Point
					pts, err = clustered.Query(intSeries[rng.Intn(len(intSeries))], lo, hi)
					for _, p := range pts {
						ts = append(ts, p.T)
					}
				}
				// A reader can outrun the writer that creates a series.
				var se *server.StatusError
				if err != nil && !(errors.As(err, &se) && se.Code == http.StatusNotFound) {
					t.Errorf("query [%d,%d]: %v", lo, hi, err)
				}
				for i, x := range ts {
					if x < lo || x > hi || (i > 0 && x <= ts[i-1]) {
						t.Errorf("query [%d,%d]: timestamps %v out of range or order", lo, hi, ts)
						break
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(rand.New(rand.NewSource(int64(100 + r))))
	}
	writeWG.Wait()
	close(done)
	readWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	single, singleDone := mount(t, server.NewEngineBackend(eng))
	defer singleDone()
	for _, batches := range posts {
		for _, b := range batches {
			if _, err := single.IngestLines(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareBackends(t, single, clustered, intSeries, floatSeries, pointsPer)
}
