// Package cluster is the sharded-serving subsystem: a consistent-hash Router
// that spreads series across N storage shards (in-process engines or remote
// bosservers over the HTTP API: line-protocol writes, point-stream reads), a
// small versioned shard-map manifest that pins the layout to disk,
// scatter-gather query fan-out with merge-by-timestamp, shard-aware grouped
// ingest, and an offline rebalance planner that emits per-series move lists.
//
// The design promotes the engine's internal 16-way series striping from
// threads to whole engine instances: each shard owns its data directory, WAL,
// flush pipeline and maintenance loop, so shards scale the way independent
// lanes do — no shared locks, no shared fsync. The Router implements
// internal/server's Backend interface, which keeps the HTTP API identical
// whether it fronts one engine or sixteen.
package cluster

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard on the hash ring. More
// vnodes smooth the per-shard share of the keyspace (relative imbalance
// shrinks roughly with 1/sqrt(vnodes)); 512 keeps 16 shards within a few
// percent of even at negligible ring-build and lookup cost.
const DefaultVNodes = 512

// fnv1a64 is the 64-bit FNV-1a hash with an avalanche finalizer, inlined so
// series routing allocates nothing. Raw FNV-1a is too weak for ring
// placement: names differing only in a trailing character (dev0.metric0 …
// dev0.metric7) end hashes within a few multiples of the FNV prime of each
// other — closer than a ring gap — and all land on one shard. The
// multiply-xorshift finalizer diffuses every input bit across the word.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

type ringPoint struct {
	h     uint64
	shard int
}

// Ring is an immutable consistent-hash ring: vnodes pseudo-random points per
// shard, a series owned by the first point at or clockwise of its hash. It
// is safe for concurrent use (no mutation after construction).
type Ring struct {
	points []ringPoint
	shards int
	vnodes int
}

// NewRing builds a ring for shard IDs 0..shards-1 with vnodes points each.
// Construction is deterministic: the same (shards, vnodes) always yields the
// same ownership, which is what lets the manifest pin a layout and the
// rebalance planner diff two layouts.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	r := &Ring{shards: shards, vnodes: vnodes}
	r.points = make([]ringPoint, 0, shards*vnodes)
	var key []byte
	for id := 0; id < shards; id++ {
		for v := 0; v < vnodes; v++ {
			key = key[:0]
			key = append(key, "shard-"...)
			key = strconv.AppendInt(key, int64(id), 10)
			key = append(key, '#')
			key = strconv.AppendInt(key, int64(v), 10)
			r.points = append(r.points, ringPoint{h: fnv1a64(string(key)), shard: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Hash collisions resolve to the lower shard, deterministically.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count the ring was built for.
func (r *Ring) Shards() int { return r.shards }

// Owner maps a series name to its owning shard ID.
func (r *Ring) Owner(series string) int {
	h := fnv1a64(series)
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].h >= h })
	if i == len(pts) {
		i = 0 // wrap: past the last point, ownership circles to the first
	}
	return pts[i].shard
}
