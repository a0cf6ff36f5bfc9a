// Package chunkcache is a size-bounded LRU cache for decoded chunks: the
// bit-unpacked time and value columns of one tsfile chunk, keyed by
// (file, series, chunk index). The read path decodes each chunk once per
// cache residency instead of once per scan page; the engine invalidates
// entries when the file that produced them is replaced (compaction commit,
// file GC) or when a series' visible contents change shape (range delete).
//
// The cache is format-agnostic: an entry is any value and the byte size its
// owner reports. A value that implements Shrinker can offer a smaller form
// of itself. When the cache is over budget it shrinks (packs) its least
// recently used entry that is still in its large form, and it evicts only
// once no such entry is left. A cache with room never packs.
//
// A miss is cached only when Admits says so: the chunk must fit the cache,
// and either the cache has room for it now, or packing entries makes that
// room, or the read wants the whole chunk. A whole read evicts the least
// recently used entries to make room, as an LRU does, after packing has
// done what it can. A partial read never evicts: when packing every entry
// still leaves no room, the reader decodes only the blocks its range needs
// into buffers of its own, and the cache counts the miss as declined.
//
// The trade-off: a packed entry costs its reader a decode of the blocks it
// needs on every hit, where a decoded one costs nothing, so packing is the
// price of holding more chunks. Only the entries the cache could not
// otherwise keep pay it. Once packing can make no more room, partial reads
// stop changing what the cache holds, so a workload of sub-chunk scans over
// data larger than the packed cache keeps the chunks it admitted while
// there was room instead of churning through all of them.
//
// Cached values are shared between callers and MUST be treated as
// read-only; Shrink builds a new value and leaves the old one intact for
// readers still holding it. Files are identified by an engine-assigned
// unique ID, not their sequence number: compaction reuses the newest
// input's sequence for its output, so a sequence-keyed cache could serve a
// stale chunk under the new file's key.
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

// Shrinker is an entry value that has a smaller form.
type Shrinker interface {
	// Shrink returns the smaller form and its size in bytes. It must not
	// modify the receiver, which readers may still hold.
	Shrink() (any, int64)
}

// entry holds one cached chunk value. An entry shrinks at most once, and
// keeps its value when the smaller form is not smaller.
type entry struct {
	key        Key
	v          any
	size       int64
	shrinkable bool // v is a Shrinker not yet shrunk
	packed     bool // v is the form Shrink returned
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Declined counts the misses Admits turned away: reads served without
	// caching what they decoded.
	Declined int64 `json:"declined"`
	// Packs counts the entries shrunk to their smaller form so far; Packed
	// is how many entries are held in it now.
	Packs    int64 `json:"packs"`
	Packed   int   `json:"packed"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns hits/(hits+misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is a thread-safe LRU over decoded chunks, bounded by the summed
// byte size of the cached values.
type Cache struct {
	mu       sync.Mutex
	max      int64
	used     int64
	lru      *list.List // front = most recently used; values are *entry
	items    map[Key]*list.Element
	unpacked int // entries whose value is a Shrinker not yet shrunk
	packed   int // entries holding their smaller form

	hits, misses, evictions, invalidations, declined, packs int64
}

// New returns a cache bounded to maxBytes of cached values. maxBytes <= 0
// returns a nil cache; a nil *Cache is a valid no-op cache.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, lru: list.New(), items: map[Key]*list.Element{}}
}

// Get returns the value cached under k, decoded or packed, or ok=false.
func (c *Cache) Get(k Key) (v any, ok bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.items[k]; found {
		c.hits++
		c.lru.MoveToFront(el)
		return el.Value.(*entry).v, true
	}
	c.misses++
	return nil, false
}

// Admits reports whether a chunk whose decoded value takes size bytes
// should be cached after a miss: size must fit the cache, and either the
// read covers the whole chunk (whole) or the cache has room for it without
// evicting, packing its least recently used decoded entries to make that
// room if it must. A declined miss is counted. A nil cache admits nothing
// and counts nothing.
func (c *Cache) Admits(size int64, whole bool) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size <= c.max && (whole || c.packUntil(c.max-size)) {
		return true
	}
	c.declined++
	return false
}

// Put caches v, taking size bytes, under k. The cache takes shared
// ownership: the caller must not mutate v afterwards. Over budget, it packs
// and then evicts least recently used entries until it fits.
func (c *Cache) Put(k Key, v any, size int64) {
	if c == nil || size > c.max {
		return // oversized chunks bypass the cache rather than flushing it
	}
	_, shrinkable := v.(Shrinker)
	e := &entry{key: k, v: v, size: size, shrinkable: shrinkable}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// Replace in place (same chunk decoded twice by concurrent readers).
		c.tally(el.Value.(*entry), -1)
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.items[k] = c.lru.PushFront(e)
	}
	c.tally(e, 1)
	c.packUntil(c.max)
	for c.used > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// tally adds e to the byte and form tallies (sign 1) or takes it out (-1).
func (c *Cache) tally(e *entry, sign int) {
	c.used += int64(sign) * e.size
	if e.packed {
		c.packed += sign
	}
	if e.shrinkable {
		c.unpacked += sign
	}
}

// packUntil shrinks the least recently used entries not yet shrunk until
// the cache holds at most limit bytes, and reports whether it got there.
// Each pack builds the smaller form under the lock: one pass over one
// chunk's columns.
func (c *Cache) packUntil(limit int64) bool {
	for el := c.lru.Back(); c.used > limit && c.unpacked > 0 && el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if !e.shrinkable {
			continue
		}
		v, size := e.v.(Shrinker).Shrink()
		c.tally(e, -1)
		if e.shrinkable = false; size < e.size {
			e.v, e.size, e.packed = v, size, true
			c.packs++
		}
		c.tally(e, 1)
	}
	return c.used <= limit
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.items, e.key)
	c.tally(e, -1)
}

// InvalidateFile drops every entry decoded from the given file. Called when
// the file leaves the live set (compaction commit, file GC).
func (c *Cache) InvalidateFile(file uint64) {
	c.invalidate(func(k Key) bool { return k.File == file })
}

// InvalidateSeries drops every entry of one series across all files.
func (c *Cache) InvalidateSeries(series string) {
	c.invalidate(func(k Key) bool { return k.Series == series })
}

func (c *Cache) invalidate(match func(Key) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*entry).key) {
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
		Declined:      c.declined,
		Packs:         c.packs,
		Packed:        c.packed,
		Entries:       len(c.items),
		Bytes:         c.used,
		MaxBytes:      c.max,
	}
}
