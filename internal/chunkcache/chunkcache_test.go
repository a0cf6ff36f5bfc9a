package chunkcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	if _, _, ok := Get[int64](c, 1, "s", 0); ok {
		t.Fatal("hit on empty cache")
	}
	times := []int64{1, 2, 3}
	vals := []int64{10, 20, 30}
	Put(c, 1, "s", 0, times, vals)
	gt, gv, ok := Get[int64](c, 1, "s", 0)
	if !ok || len(gt) != 3 || gv[2] != 30 {
		t.Fatalf("got %v %v ok=%v", gt, gv, ok)
	}
	// A float lookup on an int entry misses instead of mistyping.
	if _, _, ok := Get[float64](c, 1, "s", 0); ok {
		t.Fatal("float hit on int entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != 6*8 {
		t.Fatalf("bytes %d, want 48", st.Bytes)
	}
	if hr := st.HitRate(); hr <= 0.33 || hr >= 0.34 {
		t.Fatalf("hit rate %f", hr)
	}
}

func TestFloatEntries(t *testing.T) {
	c := New(1 << 20)
	Put(c, 7, "f", 2, []int64{1, 2}, []float64{0.5, 1.5})
	ts, vs, ok := Get[float64](c, 7, "f", 2)
	if !ok || ts[1] != 2 || vs[1] != 1.5 {
		t.Fatalf("got %v %v ok=%v", ts, vs, ok)
	}
	if _, _, ok := Get[int64](c, 7, "f", 2); ok {
		t.Fatal("int hit on float entry")
	}
}

func TestEvictionLRU(t *testing.T) {
	// Each entry is 2 slices x 8 values x 8 bytes = 128 bytes; cap at 3 entries.
	c := New(3 * 128)
	mk := func() ([]int64, []int64) { return make([]int64, 8), make([]int64, 8) }
	for i := 0; i < 3; i++ {
		ts, vs := mk()
		Put(c, 1, "s", i, ts, vs)
	}
	// Touch chunk 0 so chunk 1 is the LRU victim.
	if _, _, ok := Get[int64](c, 1, "s", 0); !ok {
		t.Fatal("chunk 0 missing")
	}
	ts, vs := mk()
	Put(c, 1, "s", 3, ts, vs)
	if _, _, ok := Get[int64](c, 1, "s", 1); ok {
		t.Fatal("LRU victim not evicted")
	}
	if _, _, ok := Get[int64](c, 1, "s", 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3*128 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOversizedBypass(t *testing.T) {
	c := New(64)
	Put(c, 1, "s", 0, make([]int64, 100), make([]int64, 100))
	if _, _, ok := Get[int64](c, 1, "s", 0); ok {
		t.Fatal("oversized entry cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInvalidation(t *testing.T) {
	c := New(1 << 20)
	Put(c, 1, "a", 0, []int64{1}, []int64{1})
	Put(c, 1, "b", 0, []int64{1}, []int64{1})
	Put(c, 2, "a", 0, []int64{1}, []int64{1})
	c.InvalidateFile(1)
	if _, _, ok := Get[int64](c, 1, "a", 0); ok {
		t.Fatal("file-1 entry survived InvalidateFile")
	}
	if _, _, ok := Get[int64](c, 2, "a", 0); !ok {
		t.Fatal("file-2 entry lost")
	}
	c.InvalidateSeries("a")
	if _, _, ok := Get[int64](c, 2, "a", 0); ok {
		t.Fatal("series entry survived InvalidateSeries")
	}
	st := c.Stats()
	if st.Invalidations != 3 {
		t.Fatalf("invalidations %d, want 3", st.Invalidations)
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	Put(c, 1, "s", 0, []int64{1}, []int64{1})
	if _, _, ok := Get[int64](c, 1, "s", 0); ok {
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
				series := fmt.Sprintf("s%d", i%4)
				Put(c, uint64(g), series, i%16, make([]int64, 8), make([]int64, 8))
				Get[int64](c, uint64(g), series, i%16)
				if i%100 == 0 {
					c.InvalidateFile(uint64(g))
				}
				if i%170 == 0 {
					c.InvalidateSeries(series)
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 4<<10 {
		t.Fatalf("cache over budget: %+v", st)
	}
}

// fill3 returns a cache holding chunks 0, 1 and 2 of one series, 128 bytes
// each, with no room left, chunk 0 the least recently used.
func fill3(t *testing.T) *Cache {
	t.Helper()
	c := New(3 * 128)
	for i := 0; i < 3; i++ {
		if !c.Admits(128, false) {
			t.Fatalf("chunk %d declined with room left: %+v", i, c.Stats())
		}
		Put(c, 1, "s", i, make([]int64, 8), make([]int64, 8))
	}
	return c
}

// TestAdmitsDeclinesPartialWhenFull: once the cache is full, a partial read
// is declined and counted, and the entries and their LRU order stay as they
// were: the next whole read still evicts the oldest entry.
func TestAdmitsDeclinesPartialWhenFull(t *testing.T) {
	c := fill3(t)
	if _, _, ok := Get[int64](c, 1, "s", 0); !ok { // chunk 1 is now the LRU
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
	Put(c, 1, "s", 3, make([]int64, 8), make([]int64, 8))
	if _, _, ok := Get[int64](c, 1, "s", 1); ok {
		t.Fatal("the declined read changed the LRU order: chunk 1 was not evicted")
	}
	for _, ci := range []int{0, 2, 3} {
		if _, _, ok := Get[int64](c, 1, "s", ci); !ok {
			t.Fatalf("chunk %d evicted", ci)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Declined != before.Declined+1 {
		t.Fatalf("stats %+v, want one eviction and the one decline", st)
	}
}

// TestAdmitsWholeReadEvictsLRU: a whole read is admitted into a full cache
// and its Put evicts the least recently used entry.
func TestAdmitsWholeReadEvictsLRU(t *testing.T) {
	c := fill3(t)
	if !c.Admits(128, true) {
		t.Fatal("a whole read that fits was declined")
	}
	Put(c, 1, "s", 3, make([]int64, 8), make([]int64, 8))
	if _, _, ok := Get[int64](c, 1, "s", 0); ok {
		t.Fatal("the least recently used chunk survived")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 || st.Declined != 0 {
		t.Fatalf("stats %+v", st)
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
