// Command bosserver serves the BOS storage engine over HTTP (see
// internal/server for the API).
//
// Serve mode (default): open the data directory and listen until SIGINT or
// SIGTERM, then shut down gracefully — stop accepting, drain in-flight
// requests and the ingest commits they started, flush the memtable:
//
//	bosserver -dir ./data -addr :8086 -packer bosb
//
// Ingest and query with any HTTP client:
//
//	curl -X POST --data-binary 'root.d1.temp,100,42' localhost:8086/ingest
//	curl 'localhost:8086/query?series=root.d1.temp&from=0&to=200'
//	curl 'localhost:8086/stats'
//
// Cluster mode: -cluster N shards the keyspace across N in-process engines
// behind the same HTTP API (consistent hashing on series names; shard map
// persisted at <dir>/shardmap.json, override with -shard-map). -rebalance
// newmap.json prints the per-series move plan onto a new map and exits:
//
//	bosserver -dir ./data -cluster 4
//
// cmd/bosperf is the benchmark for this serving stack.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bos/internal/cluster"
	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/packers"
	"bos/internal/server"
	"bos/internal/tsfile"
)

func main() {
	var (
		dir    = flag.String("dir", "", "data directory (required)")
		addr   = flag.String("addr", "127.0.0.1:8086", "listen address for serve mode")
		packer = flag.String("packer", "bosb", "packing operator: "+joinNames())
		flush  = flag.Int("flush", 0, "memtable flush threshold in points (0 = engine default)")
		sync   = flag.Bool("sync", false, "fsync the WAL on every insert batch (group commit shares one fsync across concurrent batches)")
		encode = flag.Int("encode-workers", 0, "parallel chunk encoders for flush and compaction (0 = GOMAXPROCS)")
		cache  = flag.Int64("cache-bytes", 0, "decoded-chunk cache budget in bytes (0 = 64 MiB default, negative = disabled)")
		pprofA = flag.String("pprof", "", "listen address for net/http/pprof on a separate listener (empty = disabled)")

		clusterN  = flag.Int("cluster", 1, "shard count; >1 serves a sharded cluster of in-process engines (see -shard-map)")
		shardMap  = flag.String("shard-map", "", "cluster: shard-map manifest path (default <dir>/shardmap.json; may name remote shards)")
		rebalance = flag.String("rebalance", "", "cluster: plan moves from the serving shard map onto the manifest at this path, print JSON, exit")

		doMaint   = flag.Bool("maintain", true, "serve: run background storage maintenance")
		maintIvl  = flag.Duration("maintain-interval", 30*time.Second, "serve: base maintenance interval (jittered)")
		maintRate = flag.Int64("maintain-rate", 0, "serve: maintenance rate limit in input bytes/sec (0 = unlimited)")
		adaptive  = flag.Bool("adaptive", true, "serve: adaptive per-series repacking during maintenance")
	)
	flag.Parse()
	if *dir == "" {
		fatal(errors.New("-dir is required"))
	}
	p, err := packers.ByName(*packer)
	if err != nil {
		fatal(err)
	}
	engOpts := engine.Options{
		FlushThreshold: *flush,
		SyncWAL:        *sync,
		EncodeWorkers:  *encode,
		CacheBytes:     *cache,
		File:           tsfile.Options{Packer: p},
	}
	if *pprofA != "" {
		stopPprof, pprofAddr, err := startPprof(*pprofA)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bosserver: pprof on http://%s/debug/pprof/\n", pprofAddr)
		defer stopPprof()
	}

	maintCfg := maintain.Config{
		Interval:    *maintIvl,
		BytesPerSec: *maintRate,
		Adaptive:    *adaptive,
	}

	// Cluster mode: any of the cluster flags swaps the single engine for a
	// sharded Router behind the same HTTP API. The default path below stays
	// exactly what it was.
	if *clusterN > 1 || *shardMap != "" || *rebalance != "" {
		man, mapPath, err := loadOrInitManifest(*dir, *shardMap, *clusterN)
		if err != nil {
			fatal(err)
		}
		if *rebalance != "" {
			if err := runRebalance(man, *dir, engOpts, *rebalance); err != nil {
				fatal(err)
			}
			return
		}
		var mc *maintain.Config
		if *doMaint {
			mc = &maintCfg
		}
		router, err := cluster.Open(man, *dir, engOpts, mc)
		if err != nil {
			fatal(err)
		}
		api, err := server.New(server.Options{Backend: router, PackerName: p.Name()})
		if err != nil {
			fatal(err)
		}
		banner := func(a net.Addr) string {
			return fmt.Sprintf("serving %d-shard cluster on %s (packer %s, shard map %s)", len(router.Shards()), a, p.Name(), mapPath)
		}
		// Shard lifecycles (each local engine's maintenance loop, flush and
		// close) belong to the router, which closes shards in parallel.
		if err := serve(api, *addr, banner, router.Close); err != nil {
			fatal(err)
		}
		return
	}

	engOpts.Dir = *dir
	eng, err := engine.Open(engOpts)
	if err != nil {
		fatal(err)
	}
	var mnt *maintain.Maintainer
	if *doMaint {
		mnt = maintain.New(eng, maintCfg)
	}
	api, err := server.New(server.Options{Backend: server.NewEngineBackend(eng), Maintainer: mnt, PackerName: p.Name()})
	if err != nil {
		fatal(err)
	}
	if mnt != nil {
		mnt.Start()
	}
	banner := func(a net.Addr) string { return fmt.Sprintf("serving on %s (packer %s)", a, p.Name()) }
	// The maintenance scheduler stops first (it waits out any in-flight
	// compaction), so no compaction is mid-commit when the engine closes.
	closeEngine := func() error {
		if mnt != nil {
			mnt.Stop()
			fmt.Fprintf(os.Stderr, "bosserver: maintenance stopped (%s)\n", mnt.Stats())
		}
		return eng.Close()
	}
	if err := serve(api, *addr, banner, closeEngine); err != nil {
		fatal(err)
	}
}

// Timeouts of every http.Server bosserver runs. A client that never
// finishes its request headers loses its connection after
// readHeaderTimeout. An idle keep-alive connection is closed after
// idleTimeout, which is longer than the 90 s a RemoteShard client keeps an
// idle pooled connection, so the client side closes shard connections first.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds every http.Server bosserver runs, the API and the
// pprof listener alike.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve listens on addr and serves api until SIGINT or SIGTERM, then shuts
// down gracefully. banner names what is served, given the bound address.
// The drain order matters: the listener and in-flight HTTP stop first, then
// api.Close refuses further ingest and waits for the commits in flight,
// then closeBackend flushes and releases the storage, so every acknowledged
// write reaches the backend before it closes.
func serve(api *server.Server, addr string, banner func(net.Addr) string, closeBackend func() error) error {
	httpSrv := newHTTPServer(api.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bosserver: %s\n", banner(ln.Addr()))

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "bosserver: %v, shutting down\n", s)
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := api.Close(); err != nil {
		return err
	}
	if err := closeBackend(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bosserver: clean shutdown")
	return nil
}

// startPprof serves net/http/pprof's self-registered DefaultServeMux
// handlers on their own listener, keeping profiling off the public API
// address. The returned stop closes the server and waits the serving
// goroutine out, so a graceful shutdown never leaves a profiler attached to
// an engine that is mid-teardown.
func startPprof(addr string) (stop func(), bound net.Addr, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := newHTTPServer(http.DefaultServeMux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bosserver: pprof shutdown:", err)
		}
		<-errc
	}, ln.Addr(), nil
}

func joinNames() string {
	out := ""
	for i, n := range packers.Names() {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bosserver:", err)
	os.Exit(1)
}
