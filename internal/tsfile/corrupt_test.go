package tsfile

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bos/internal/chunkcache"
)

// corruptSeedFile is a small file with every chunk kind the reader decodes:
// two integer chunks whose values carry outliers, a scaled float chunk and a
// raw float chunk.
func corruptSeedFile(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	start := int64(0)
	for c := 0; c < 2; c++ {
		pts := makePoints(rng, start, 60)
		for i := 7; i < len(pts); i += 19 {
			pts[i].V += 1 << 30 // an upper outlier the planner separates
		}
		start = pts[len(pts)-1].T
		if err := w.Append("ints", pts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendFloats("scaled", makeFloatPoints(rng, 0, 50, 1)); err != nil {
		t.Fatal(err)
	}
	raw := makeFloatPoints(rng, 0, 20, 1)
	raw[3].V = math.Pi // not a decimal: the chunk stores raw bits
	if err := w.AppendFloats("raw", raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readEverything opens data and drives every read the Reader offers over
// every series and chunk, returning the errors they report. It reads the
// file three times: with the chunk cache off, so every read decodes; on, so
// the reads after the first hit the columns the first one cached; and with
// a cache smaller than any chunk, so every miss is declined and read into
// pooled buffers.
func readEverything(data []byte) []error {
	var errs []error
	for _, cache := range []*chunkcache.Cache{nil, chunkcache.New(1 << 20), chunkcache.New(256)} {
		errs = append(errs, readEverythingWith(data, cache)...)
	}
	return errs
}

func readEverythingWith(data []byte, cache *chunkcache.Cache) []error {
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{})
	if err != nil {
		return []error{err}
	}
	r.SetCache(cache, 1)
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	drain := func(next func() bool, err func() error) {
		for next() {
		}
		note(err())
	}
	for _, s := range r.Series() {
		_, err := r.ReadAll(s)
		note(err)
		_, err = r.ReadAllFloats(s)
		note(err)
		chunks, err := r.Chunks(s)
		note(err)
		// The whole series, then its middle half by the footer's time
		// range: a sub-range read decodes only the blocks it needs.
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		if len(chunks) > 0 {
			first, last := chunks[0].MinT, chunks[len(chunks)-1].MaxT
			quarter := int64((uint64(last) - uint64(first)) / 4)
			lo, hi = first+quarter, last-quarter
		}
		for _, rg := range [][2]int64{{math.MinInt64, math.MaxInt64}, {lo, hi}} {
			if it, err := Iter[int64](r, s, rg[0], rg[1]); err != nil {
				note(err)
			} else {
				drain(it.Next, it.Err)
			}
			if it, err := Iter[float64](r, s, rg[0], rg[1]); err != nil {
				note(err)
			} else {
				drain(it.Next, it.Err)
			}
		}
		_, err = r.Query(s, lo, hi, math.MinInt64, math.MaxInt64)
		note(err)
		_, err = r.QueryFloats(s, lo, hi, math.Inf(-1), math.Inf(1))
		note(err)
		for ci, m := range chunks {
			_, _, err := r.ChunkColumns(s, ci)
			note(err)
			h, err := r.OpenChunk(s, ci)
			if err != nil {
				note(err)
				continue
			}
			_, _, err = h.ValueRange(1, h.Meta.Count-1)
			note(err)
			_, err = h.FilterValues(1, h.Meta.Count-1, m.MinV, m.MinV+(m.MaxV-m.MinV)/2, func(int, int64) {})
			note(err)
			h.Release()
		}
	}
	return errs
}

// FuzzReadCorruptFile: no mutation of a file may panic or exhaust memory in
// any read, and every error it causes is ErrCorrupt or ErrKindMismatch (the
// seed file holds both value kinds, so every series is also read the wrong
// way).
func FuzzReadCorruptFile(f *testing.F) {
	f.Add(corruptSeedFile(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, err := range readEverything(data) {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrKindMismatch) {
				t.Fatalf("error wraps neither ErrCorrupt nor ErrKindMismatch: %v", err)
			}
		}
	})
}

// TestSingleByteCorruptionBounded sets every byte of the seed file to seven
// other values in turn. Each corrupted file must be read in full within
// 200 ms and 64 MiB of allocation: no length, count or offset read from the
// file may size an allocation before it is checked.
func TestSingleByteCorruptionBounded(t *testing.T) {
	data := corruptSeedFile(t)
	const maxAlloc, maxTime = 64 << 20, 200 * time.Millisecond
	var before, after runtime.MemStats
	for i := range data {
		orig := data[i]
		for _, v := range []byte{orig ^ 0x01, orig ^ 0x40, orig ^ 0x80, orig + 3, 0x00, 0x7f, 0xff} {
			if v == orig {
				continue
			}
			data[i] = v
			runtime.ReadMemStats(&before)
			start := time.Now()
			readEverything(data)
			took := time.Since(start)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxAlloc || took > maxTime {
				t.Errorf("byte %d set to %#x: read took %v and allocated %.1f MiB", i, v, took, float64(alloc)/(1<<20))
			}
		}
		data[i] = orig
	}
}

// TestChunkBodyMustMatchFooter: a chunk body whose kind byte or length
// prefix disagrees with its footer entry is corrupt, not a kind mismatch and
// not a clean read.
func TestChunkBodyMustMatchFooter(t *testing.T) {
	data := corruptSeedFile(t)
	r, err := OpenReader(bytes.NewReader(data), int64(len(data)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstChunk := func(series string) ChunkMeta {
		chunks, err := r.Chunks(series)
		if err != nil {
			t.Fatal(err)
		}
		return chunks[0]
	}
	// kindAt is the offset of a chunk's kind byte: after the length prefix
	// and the point count.
	kindAt := func(m ChunkMeta) int64 {
		return m.Offset + int64(uvarintLen(uint64(m.EncodedBytes))+uvarintLen(uint64(m.Count)))
	}
	read := func(cor []byte, series string) error {
		r, err := OpenReader(bytes.NewReader(cor), int64(len(cor)), Options{})
		if err != nil {
			return err
		}
		if series == "ints" {
			_, err = r.ReadAll(series)
		} else {
			_, err = r.ReadAllFloats(series)
		}
		return err
	}
	cases := []struct {
		series string
		at     int64
		kinds  []byte
	}{
		{"ints", kindAt(firstChunk("ints")), []byte{1, 2, 7}},
		{"scaled", kindAt(firstChunk("scaled")), []byte{0, 2, 7}},
	}
	for _, c := range cases {
		if data[c.at] != firstChunk(c.series).Kind {
			t.Fatalf("%s: byte %d is %d, not the chunk kind", c.series, c.at, data[c.at])
		}
		for _, k := range c.kinds {
			cor := append([]byte(nil), data...)
			cor[c.at] = k
			if err := read(cor, c.series); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: kind byte %d -> %d: err = %v, want ErrCorrupt", c.series, data[c.at], k, err)
			}
		}
	}
	m := firstChunk("ints")
	cor := append([]byte(nil), data...)
	cor[m.Offset]++ // the length prefix, one more than EncodedBytes
	if err := read(cor, "ints"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("length prefix off by one: err = %v, want ErrCorrupt", err)
	}
}
