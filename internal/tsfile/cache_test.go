package tsfile

import (
	"bytes"
	"testing"

	"bos/internal/chunkcache"
)

// TestReaderChunkCache verifies the cache plumbing: the second read of a
// chunk is served from the cache, results are identical, and both int and
// float chunks participate.
func TestReaderChunkCache(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	ints := make([]Point, 500)
	for i := range ints {
		ints[i] = Point{T: int64(i), V: int64(i * 3)}
	}
	if err := w.Append("s.int", ints); err != nil {
		t.Fatal(err)
	}
	floats := make([]FloatPoint, 500)
	for i := range floats {
		floats[i] = FloatPoint{T: int64(i), V: float64(i) / 4}
	}
	if err := w.AppendFloats("s.float", floats); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := chunkcache.New(1 << 20)
	r.SetCache(cache, 42)

	first, err := r.ReadAll("s.int")
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.ReadAll("s.int")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(ints) || len(second) != len(ints) {
		t.Fatalf("lens %d/%d, want %d", len(first), len(second), len(ints))
	}
	for i := range first {
		if first[i] != second[i] || first[i] != ints[i] {
			t.Fatalf("point %d mismatch: %+v %+v %+v", i, ints[i], first[i], second[i])
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}

	f1, err := r.ReadAllFloats("s.float")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := r.ReadAllFloats("s.float")
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] || f1[i] != floats[i] {
			t.Fatalf("float point %d mismatch", i)
		}
	}
	if got := cache.Stats(); got.Hits <= st.Hits {
		t.Fatalf("float reread did not hit the cache: %+v -> %+v", st, got)
	}

	// The iterator path shares the cache with Query.
	preIter := cache.Stats()
	it, err := Iter[int64](r, "s.int", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil || n != len(ints) {
		t.Fatalf("iter: n=%d err=%v", n, it.Err())
	}
	if got := cache.Stats(); got.Hits <= preIter.Hits {
		t.Fatalf("iterator did not hit the cache: %+v -> %+v", preIter, got)
	}
}
