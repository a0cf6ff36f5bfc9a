package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bos/internal/cluster"
	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/server"
)

// Cluster mode: -cluster N (or -shard-map path) swaps the single engine for
// an internal/cluster Router over N shards. The shard map lives at
// <dir>/shardmap.json unless -shard-map points elsewhere; a missing map is
// bootstrapped as N local shards and saved, an existing one is loaded and
// validated (so a map written under a different format version or hash
// function refuses to serve rather than misrouting reads).

const defaultShardMapName = "shardmap.json"

// loadOrInitManifest resolves the shard map for a cluster of n shards rooted
// at dir.
func loadOrInitManifest(dir, mapPath string, n int) (*cluster.Manifest, string, error) {
	if mapPath == "" {
		mapPath = filepath.Join(dir, defaultShardMapName)
	}
	if _, err := os.Stat(mapPath); errors.Is(err, os.ErrNotExist) {
		if n < 2 {
			return nil, "", fmt.Errorf("bosserver: shard map %s does not exist and -cluster is %d", mapPath, n)
		}
		man := cluster.DefaultManifest(n)
		if err := os.MkdirAll(filepath.Dir(mapPath), 0o755); err != nil {
			return nil, "", err
		}
		if err := man.Save(mapPath); err != nil {
			return nil, "", err
		}
		return man, mapPath, nil
	}
	man, err := cluster.LoadManifest(mapPath)
	if err != nil {
		return nil, "", err
	}
	if n > 1 && len(man.Shards) != n {
		return nil, "", fmt.Errorf("bosserver: -cluster %d disagrees with shard map %s (%d shards); drop the flag or plan a rebalance", n, mapPath, len(man.Shards))
	}
	return man, mapPath, nil
}

// openRouter opens every shard in the manifest: local shards get their own
// engine (and, when maintCfg is set, their own maintenance loop, started);
// remote shards get a retrying client. On any failure the already-open
// shards are closed.
func openRouter(man *cluster.Manifest, root string, opt engine.Options, maintCfg *maintain.Config) (*cluster.Router, error) {
	shards := make([]cluster.Shard, 0, len(man.Shards))
	fail := func(err error) (*cluster.Router, error) {
		for _, s := range shards {
			s.Close() // best-effort unwind after a failed open
		}
		return nil, err
	}
	for _, spec := range man.Shards {
		switch spec.Backend {
		case cluster.BackendLocal:
			o := opt
			o.Dir = cluster.ResolveDir(root, spec.Dir)
			eng, err := engine.Open(o)
			if err != nil {
				return fail(fmt.Errorf("bosserver: shard %d: %w", spec.ID, err))
			}
			var mnt *maintain.Maintainer
			if maintCfg != nil {
				mnt = maintain.New(eng, *maintCfg)
				mnt.Start()
			}
			shards = append(shards, cluster.NewLocalShard(eng, mnt, o.Dir))
		case cluster.BackendRemote:
			shards = append(shards, cluster.NewRemoteShard(spec.Addr, nil,
				server.WithRetry(3, 50*time.Millisecond)))
		default:
			return fail(fmt.Errorf("bosserver: shard %d: unknown backend %q", spec.ID, spec.Backend))
		}
	}
	return cluster.New(man, shards)
}

// runRebalance plans (offline) the moves from the serving shard map to the
// map at newMapPath, over the series currently in the cluster, and prints the
// plan as JSON. It never moves data.
func runRebalance(man *cluster.Manifest, root string, opt engine.Options, newMapPath string) error {
	newMan, err := cluster.LoadManifest(newMapPath)
	if err != nil {
		return err
	}
	router, err := openRouter(man, root, opt, nil)
	if err != nil {
		return err
	}
	defer router.Close() // read-only open, plan already emitted
	series, err := router.Series()
	if err != nil {
		return err
	}
	plan, err := cluster.PlanRebalance(man, newMan, series)
	if err != nil {
		return err
	}
	return emitJSON(plan)
}

func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
