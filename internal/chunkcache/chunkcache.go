// Package chunkcache is a size-bounded LRU cache for decoded chunks: the
// bit-unpacked time and value columns of one tsfile chunk, keyed by
// (file, series, chunk index). The read path decodes each chunk once per
// cache residency instead of once per scan page; the engine invalidates
// entries when the file that produced them is replaced (compaction commit,
// file GC) or when a series' visible contents change shape (range delete).
//
// Cached slices are shared between callers and MUST be treated as read-only.
// Files are identified by an engine-assigned unique ID, not their sequence
// number: compaction reuses the newest input's sequence for its output, so a
// sequence-keyed cache could serve a stale chunk under the new file's key.
package chunkcache

import (
	"container/list"
	"sync"
)

// Key identifies one decoded chunk.
type Key struct {
	File   uint64 // unique per open file handle, assigned by the owner
	Series string
	Chunk  int // index within the series' chunk list
}

// entry holds one decoded chunk: its time column and its value column, a
// []int64 or a []float64 by the chunk's kind.
type entry struct {
	key   Key
	times []int64
	vals  any
	size  int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a thread-safe LRU over decoded chunks, bounded by the summed
// byte size of the cached columns.
type Cache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	lru   *list.List // front = most recently used; values are *entry
	items map[Key]*list.Element

	hits, misses, evictions, invalidations int64
}

// New returns a cache bounded to maxBytes of decoded column data. maxBytes
// <= 0 returns a nil cache; a nil *Cache is a valid no-op cache.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, lru: list.New(), items: map[Key]*list.Element{}}
}

// Get returns the decoded columns of a chunk of value kind V, or ok=false.
// An entry of the other kind counts as a miss.
func Get[V int64 | float64](c *Cache, file uint64, series string, chunk int) (times []int64, vals []V, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.items[Key{file, series, chunk}]; found {
		e := el.Value.(*entry)
		if vals, ok = e.vals.([]V); ok {
			c.hits++
			c.lru.MoveToFront(el)
			return e.times, vals, true
		}
	}
	c.misses++
	return nil, nil, false
}

// Put caches the decoded columns of a chunk. The cache takes shared
// ownership: the caller must not mutate the slices afterwards.
func Put[V int64 | float64](c *Cache, file uint64, series string, chunk int, times []int64, vals []V) {
	if c == nil {
		return
	}
	c.put(&entry{
		key:   Key{file, series, chunk},
		times: times,
		vals:  vals,
		size:  int64(len(times)+len(vals)) * 8,
	})
}

func (c *Cache) put(e *entry) {
	if c == nil || e.size > c.max {
		return // oversized chunks bypass the cache rather than flushing it
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		// Replace in place (same chunk decoded twice by concurrent readers).
		old := el.Value.(*entry)
		c.used += e.size - old.size
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.items[e.key] = c.lru.PushFront(e)
		c.used += e.size
	}
	for c.used > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.items, e.key)
	c.used -= e.size
}

// InvalidateFile drops every entry decoded from the given file. Called when
// the file leaves the live set (compaction commit, file GC).
func (c *Cache) InvalidateFile(file uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).key.File == file {
			c.removeLocked(el)
			c.invalidations++
		}
		el = next
	}
}

// InvalidateSeries drops every entry of one series across all files.
func (c *Cache) InvalidateSeries(series string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).key.Series == series {
			c.removeLocked(el)
			c.invalidations++
		}
		el = next
	}
}

// Stats snapshots the counters. Safe on a nil cache (all zeros).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.items),
		Bytes:         c.used,
		MaxBytes:      c.max,
	}
}
