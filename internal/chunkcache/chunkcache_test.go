package chunkcache

import (
	"fmt"
	"sync"
	"testing"
)

// cols stands for a decoded chunk: it shrinks to small, a packed stand-in a
// quarter of its size.
type cols struct{ size int64 }

func (c cols) Shrink() (any, int64) { return small{c.size / 4}, c.size / 4 }

type small struct{ size int64 }

func key(chunk int) Key { return Key{File: 1, Series: "s", Chunk: chunk} }

// put caches a 128-byte decoded chunk under key(chunk).
func put(c *Cache, chunk int) { c.Put(key(chunk), cols{128}, 128) }

func has(c *Cache, chunk int) bool {
	_, ok := c.Get(key(chunk))
	return ok
}

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(0), "columns", 48)
	v, ok := c.Get(key(0))
	if !ok || v != "columns" {
		t.Fatalf("got %v ok=%v", v, ok)
	}
	if _, ok := c.Get(Key{File: 2, Series: "s"}); ok {
		t.Fatal("hit on another file's key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 || st.Bytes != 48 {
		t.Fatalf("stats %+v", st)
	}
	if hr := st.HitRate(); hr <= 0.33 || hr >= 0.34 {
		t.Fatalf("hit rate %f", hr)
	}
}

// TestFloatEntries: the cache holds any value, such as a chunk's time and
// float columns, and hands back the value it was given.
func TestFloatEntries(t *testing.T) {
	c := New(1 << 20)
	type floatCols struct {
		times []int64
		vals  []float64
	}
	c.Put(Key{7, "f", 2}, &floatCols{[]int64{1, 2}, []float64{0.5, 1.5}}, 32)
	v, ok := c.Get(Key{7, "f", 2})
	fc, isFloat := v.(*floatCols)
	if !ok || !isFloat || fc.times[1] != 2 || fc.vals[1] != 1.5 {
		t.Fatalf("got %v ok=%v", v, ok)
	}
	if st := c.Stats(); st.Packed != 0 || st.Bytes != 32 {
		t.Fatalf("stats %+v, want one entry of 32 bytes that cannot pack", st)
	}
}

func TestEvictionLRU(t *testing.T) {
	// Entries that do not shrink, three to a full cache.
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		c.Put(key(i), small{128}, 128)
	}
	// Touch chunk 0 so chunk 1 is the LRU victim.
	if !has(c, 0) {
		t.Fatal("chunk 0 missing")
	}
	c.Put(key(3), small{128}, 128)
	if has(c, 1) {
		t.Fatal("LRU victim not evicted")
	}
	if !has(c, 0) {
		t.Fatal("recently used entry evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*128 || st.Packs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOversizedBypass(t *testing.T) {
	c := New(64)
	c.Put(key(0), cols{1600}, 1600)
	if has(c, 0) {
		t.Fatal("oversized entry cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidation(t *testing.T) {
	c := New(1 << 20)
	c.Put(Key{1, "a", 0}, cols{16}, 16)
	c.Put(Key{1, "b", 0}, cols{16}, 16)
	c.Put(Key{2, "a", 0}, cols{16}, 16)
	c.InvalidateFile(1)
	if _, ok := c.Get(Key{1, "a", 0}); ok {
		t.Fatal("file-1 entry survived InvalidateFile")
	}
	if _, ok := c.Get(Key{2, "a", 0}); !ok {
		t.Fatal("file-2 entry lost")
	}
	c.InvalidateSeries("a")
	if _, ok := c.Get(Key{2, "a", 0}); ok {
		t.Fatal("series entry survived InvalidateSeries")
	}
	st := c.Stats()
	if st.Invalidations != 3 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v, want three invalidations and nothing left", st)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	c.Put(key(0), cols{16}, 16)
	if has(c, 0) {
		t.Fatal("nil cache hit")
	}
	c.InvalidateFile(1)
	c.InvalidateSeries("s")
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if New(0) != nil || New(-1) != nil {
		t.Fatal("New(<=0) must return nil")
	}
}

func TestConcurrent(t *testing.T) {
	c := New(4 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{uint64(g), fmt.Sprintf("s%d", i%4), i % 16}
				if c.Admits(128, i%3 == 0) {
					c.Put(k, cols{128}, 128)
				}
				c.Get(k)
				if i%100 == 0 {
					c.InvalidateFile(uint64(g))
				}
				if i%170 == 0 {
					c.InvalidateSeries(k.Series)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 4<<10 || st.Packed > st.Entries {
		t.Fatalf("cache over budget: %+v", st)
	}
}

// fill3 returns a cache holding chunks 0, 1 and 2 of one series, 128 bytes
// each and decoded, with no room left, chunk 0 the least recently used.
func fill3(t *testing.T) *Cache {
	t.Helper()
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		if !c.Admits(128, false) {
			t.Fatalf("chunk %d declined with room left: %+v", i, c.Stats())
		}
		put(c, i)
	}
	if st := c.Stats(); st.Packs != 0 || st.Packed != 0 {
		t.Fatalf("a cache with room packed: %+v", st)
	}
	return c
}

// checkTally requires Bytes to be the sum of the entries' sizes, as each
// value reports it, and Packed the count of the shrunk ones.
func checkTally(t *testing.T, c *Cache) {
	t.Helper()
	var bytes int64
	packed := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		switch v := el.Value.(*entry).v.(type) {
		case cols:
			bytes += v.size
		case small:
			bytes += v.size
			packed++
		}
	}
	if st := c.Stats(); st.Bytes != bytes || st.Packed != packed {
		t.Fatalf("stats %+v, want %d bytes and %d packed entries", st, bytes, packed)
	}
}

// TestCacheWithRoomNeverPacks: a cache with room admits and keeps every
// chunk decoded, partial reads and whole reads alike.
func TestCacheWithRoomNeverPacks(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 100; i++ {
		if !c.Admits(128, i%2 == 0) {
			t.Fatalf("chunk %d declined with room left", i)
		}
		put(c, i)
		has(c, i/2)
	}
	if st := c.Stats(); st.Packs != 0 || st.Packed != 0 || st.Evictions != 0 || st.Declined != 0 || st.Entries != 100 {
		t.Fatalf("stats %+v, want 100 decoded entries and no pack", st)
	}
}

// TestPacksLRUBeforeEvicting: over budget, the cache packs its least
// recently used decoded entry first, and evicts nothing while one is left to
// pack: a partial read is admitted by packing, and so is a whole read.
func TestPacksLRUBeforeEvicting(t *testing.T) {
	c := fill3(t)
	if !has(c, 0) { // chunk 1 is now the least recently used
		t.Fatal("chunk 0 missing")
	}
	if !c.Admits(128, false) {
		t.Fatal("a partial read was declined while packing could make room")
	}
	put(c, 3)
	checkTally(t, c)
	st := c.Stats()
	if st.Packs != 2 || st.Packed != 2 || st.Evictions != 0 || st.Entries != 4 || st.Declined != 0 {
		t.Fatalf("stats %+v, want two packs (the two least recently used) and no eviction", st)
	}
	for _, want := range []struct {
		chunk int
		v     any
	}{{1, small{32}}, {2, small{32}}, {0, cols{128}}, {3, cols{128}}} { // chunk 0 is the LRU decoded entry after this
		if v, ok := c.Get(key(want.chunk)); !ok || v != want.v {
			t.Fatalf("chunk %d holds %v, %v; want %v", want.chunk, v, ok, want.v)
		}
	}
	// A whole read packs before it evicts: packing chunk 0 leaves three
	// packed entries and two decoded ones, 352 of 384 bytes.
	put(c, 4)
	checkTally(t, c)
	if st := c.Stats(); st.Evictions != 0 || st.Packs != 3 || st.Entries != 5 || st.Bytes != 352 {
		t.Fatalf("stats %+v, want the whole read to pack chunk 0, not evict", st)
	}
	if v, _ := c.Get(key(3)); v != (cols{128}) {
		t.Fatalf("chunk 3 holds %v, want it decoded: chunk 0 was the least recently used", v)
	}
}

// TestFullPackedCacheDeclinesPartial: once every entry is packed and there
// is still no room, a partial read is declined and changes nothing, and a
// whole read evicts the least recently used entry.
func TestFullPackedCacheDeclinesPartial(t *testing.T) {
	c := New(256)
	for i := 0; i < 8; i++ { // eight packed entries of 32 bytes fill it
		c.Put(key(i), cols{128}, 128)
	}
	st := c.Stats()
	if st.Packed != 8 || st.Bytes != 256 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want eight packed entries filling the cache", st)
	}
	if c.Admits(128, false) {
		t.Fatal("a full cache of packed entries admitted a partial read")
	}
	after := c.Stats()
	if after.Declined != st.Declined+1 || after.Entries != 8 || after.Bytes != 256 || after.Packs != st.Packs {
		t.Fatalf("after a declined read: %+v, want one more declined and nothing else changed", after)
	}
	if !has(c, 0) { // chunk 1 is now the least recently used
		t.Fatal("chunk 0 missing")
	}
	if !c.Admits(128, true) {
		t.Fatal("a whole read that fits was declined")
	}
	put(c, 8) // packs chunk 8, the one decoded entry, then evicts chunk 1
	checkTally(t, c)
	if has(c, 1) || !has(c, 0) || !has(c, 2) || !has(c, 8) {
		t.Fatal("the whole read did not evict the least recently used entry")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 256 || st.Packed != 8 {
		t.Fatalf("stats %+v, want one eviction after chunk 8 packed", st)
	}
}

// TestAdmitsDeclinesPartialWhenFull: a full cache whose entries do not
// shrink declines a partial read and keeps its entries and their LRU order:
// the next whole read still evicts the oldest entry.
func TestAdmitsDeclinesPartialWhenFull(t *testing.T) {
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		c.Put(key(i), small{128}, 128)
	}
	if !has(c, 0) { // chunk 1 is now the LRU
		t.Fatal("chunk 0 missing")
	}
	before := c.Stats()
	if c.Admits(128, false) {
		t.Fatal("a full cache admitted a partial read")
	}
	st := c.Stats()
	if st.Declined != before.Declined+1 || st.Entries != 3 || st.Bytes != 3*128 || st.Evictions != 0 {
		t.Fatalf("after a declined read: %+v, want one more declined and the entries kept", st)
	}
	if !c.Admits(128, true) {
		t.Fatal("a whole read that fits was declined")
	}
	c.Put(key(3), small{128}, 128)
	if has(c, 1) {
		t.Fatal("the declined read changed the LRU order: chunk 1 was not evicted")
	}
	for _, ci := range []int{0, 2, 3} {
		if !has(c, ci) {
			t.Fatalf("chunk %d evicted", ci)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Declined != before.Declined+1 {
		t.Fatalf("stats %+v, want one eviction and the one decline", st)
	}
}

// TestAdmitsWholeReadEvictsLRU: a whole read is admitted into a full cache
// whose entries cannot pack, and its Put evicts the least recently used
// entry.
func TestAdmitsWholeReadEvictsLRU(t *testing.T) {
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		c.Put(key(i), small{128}, 128)
	}
	if !c.Admits(128, true) {
		t.Fatal("a whole read that fits was declined")
	}
	c.Put(key(3), small{128}, 128)
	if has(c, 0) {
		t.Fatal("the least recently used chunk survived")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 || st.Declined != 0 || st.Packs != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestInvalidationDropsBothForms: invalidating a file drops its decoded and
// its packed entries, and Bytes and Packed stay exact.
func TestInvalidationDropsBothForms(t *testing.T) {
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		c.Put(Key{File: uint64(1 + i%2), Series: "s", Chunk: i}, cols{128}, 128)
	}
	c.Put(Key{File: 2, Series: "s", Chunk: 3}, cols{128}, 128) // packs chunks 0 and 1
	checkTally(t, c)
	if st := c.Stats(); st.Packed != 2 {
		t.Fatalf("stats %+v, want two packed entries", st)
	}
	c.InvalidateFile(1) // chunk 0, packed, and chunk 2, decoded
	checkTally(t, c)
	if st := c.Stats(); st.Entries != 2 || st.Packed != 1 || st.Bytes != 32+128 || st.Invalidations != 2 {
		t.Fatalf("stats %+v, want file 2's packed chunk 1 and decoded chunk 3 left", st)
	}
	c.InvalidateSeries("s")
	checkTally(t, c)
	if st := c.Stats(); st.Entries != 0 || st.Packed != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v, want nothing left", st)
	}
}

// TestAdmitsDeclinesOversized: a chunk larger than the cache is declined,
// whole or not, even into an empty cache, and is never cached.
func TestAdmitsDeclinesOversized(t *testing.T) {
	c := New(64)
	for _, whole := range []bool{true, false} {
		if c.Admits(1600, whole) {
			t.Fatalf("a 1600-byte chunk admitted into a 64-byte cache (whole %v)", whole)
		}
	}
	if st := c.Stats(); st.Declined != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v, want two declines and nothing cached", st)
	}
	var nilCache *Cache
	if nilCache.Admits(8, true) || nilCache.Stats() != (Stats{}) {
		t.Fatal("a nil cache admitted a read or counted a decline")
	}
}

// grows is a value whose smaller form is not smaller.
type grows struct{}

func (grows) Shrink() (any, int64) { return small{256}, 256 }

// TestShrinkThatDoesNotShrink: an entry whose smaller form is no smaller
// keeps its value, is not counted as packed, and is not offered again, so
// the cache evicts instead.
func TestShrinkThatDoesNotShrink(t *testing.T) {
	c := New(256)
	c.Put(key(0), grows{}, 128)
	c.Put(key(1), grows{}, 128)
	c.Put(key(2), grows{}, 128) // tries both older entries, then evicts chunk 0
	if v, ok := c.Get(key(1)); !ok || v != (grows{}) {
		t.Fatalf("chunk 1 holds %v, %v; want its own value", v, ok)
	}
	if st := c.Stats(); st.Packs != 0 || st.Packed != 0 || st.Evictions != 1 || st.Bytes != 256 {
		t.Fatalf("stats %+v, want no pack and one eviction", st)
	}
	if c.Admits(128, false) {
		t.Fatal("a partial read admitted into a full cache whose entries cannot shrink")
	}
}
