package tsfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bos/internal/bitpack"
	"bos/internal/chunkcache"
	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/dataset"
)

// encodeLegacyIndex replicates the pre-v2 footer byte for byte: series count
// first, no version tag, no per-chunk flags or sum.
func encodeLegacyIndex(order []string, index map[string][]ChunkMeta) []byte {
	out := codec.AppendUvarint(nil, uint64(len(order)))
	for _, name := range order {
		out = codec.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		chunks := index[name]
		out = codec.AppendUvarint(out, uint64(len(chunks)))
		for _, c := range chunks {
			out = codec.AppendUvarint(out, uint64(c.Offset))
			out = codec.AppendUvarint(out, uint64(c.Count))
			out = codec.AppendUvarint(out, uint64(c.EncodedBytes))
			out = appendZig(out, c.MinT)
			out = appendZig(out, c.MaxT)
			out = appendZig(out, c.MinV)
			out = appendZig(out, c.MaxV)
			out = append(out, c.Kind, byte(c.Precision))
			out = codec.AppendUvarint(out, uint64(len(c.Packer)))
			out = append(out, c.Packer...)
		}
	}
	return out
}

// encodeV2Index is the v2 footer: the current footer without the default
// packer's name.
func encodeV2Index(order []string, index map[string][]ChunkMeta) []byte {
	v3 := encodeIndex("", order, index)
	head := codec.AppendUvarint(nil, indexV2Tag)
	return append(codec.AppendUvarint(head, 2), v3[len(head)+2:]...)
}

// rewriteFooter swaps a file's footer for encode's encoding of the same
// chunk directory.
func rewriteFooter(t *testing.T, file *bytes.Reader, opt Options, encode func([]string, map[string][]ChunkMeta) []byte) *bytes.Reader {
	t.Helper()
	data := make([]byte, file.Size())
	if _, err := file.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	idxLen := int64(binary.LittleEndian.Uint32(data[len(data)-8:]))
	body := data[:int64(len(data))-8-idxLen]

	r, err := OpenReader(file, file.Size(), opt)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string][]ChunkMeta{}
	for _, s := range r.Series() {
		chunks, err := r.Chunks(s)
		if err != nil {
			t.Fatal(err)
		}
		index[s] = chunks
	}
	idx := encode(r.Series(), index)
	out := append(append([]byte(nil), body...), idx...)
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(idx)))
	copy(tail[4:], magic)
	out = append(out, tail[:]...)
	return bytes.NewReader(out)
}

// TestLegacyFooterCompat: a file with the old footer still opens and reads
// identically; its chunks just carry no stats.
func TestLegacyFooterCompat(t *testing.T) {
	opt := Options{}
	v2File, want := buildFile(t, opt)
	legacy := rewriteFooter(t, v2File, opt, encodeLegacyIndex)

	lr, err := OpenReader(legacy, legacy.Size(), opt)
	if err != nil {
		t.Fatalf("open legacy: %v", err)
	}
	for series, pts := range want {
		chunks, err := lr.Chunks(series)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range chunks {
			if m.HasStats || m.Sum != 0 {
				t.Fatalf("legacy chunk claims stats: %+v", m)
			}
		}
		got, err := lr.ReadAll(series)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("legacy read %d points, want %d", len(got), len(pts))
		}
		for i := range got {
			if got[i] != pts[i] {
				t.Fatalf("legacy point %d: got %+v want %+v", i, got[i], pts[i])
			}
		}
	}
}

// unregistered is bitpack.Packer under a name the registry does not hold.
type unregistered struct{ bitpack.Packer }

func (unregistered) Name() string { return "unregistered" }

// TestFooterNamesDefaultPacker: a file's footer names its default packer, so
// the file reads back under any Options. A packer named like a registry
// entry is written and named as that entry. A v2 footer, or a packer outside
// the registry, leaves the name empty and decodes with Options.Packer; a
// name the registry does not know is corruption.
func TestFooterNamesDefaultPacker(t *testing.T) {
	readsBack := func(t *testing.T, file *bytes.Reader, want map[string][]Point, opt Options, defName string) {
		t.Helper()
		r, err := OpenReader(file, file.Size(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.DefaultPacker(); got != defName {
			t.Fatalf("DefaultPacker() = %q, want %q", got, defName)
		}
		for series, pts := range want {
			got, err := r.ReadAll(series)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, pts) {
				t.Fatalf("%s: read %d points, want %d equal ones", series, len(got), len(pts))
			}
		}
	}
	pfor := Options{Packer: mustPacker(t, "pfor")}
	file, want := buildFile(t, pfor)
	t.Run("v3", func(t *testing.T) { readsBack(t, file, want, Options{}, "pfor") })
	t.Run("v2", func(t *testing.T) { readsBack(t, rewriteFooter(t, file, pfor, encodeV2Index), want, pfor, "") })
	t.Run("unknown", func(t *testing.T) {
		bad := rewriteFooter(t, file, pfor, func(order []string, index map[string][]ChunkMeta) []byte {
			return encodeIndex("nosuch", order, index)
		})
		if _, err := OpenReader(bad, bad.Size(), pfor); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open = %v, want ErrCorrupt", err)
		}
	})
	t.Run("namedLikeRegistry", func(t *testing.T) {
		// Named "BP": the writer encodes with the registry's "bp".
		file, want := buildFile(t, Options{Packer: core.NewPacker(core.SeparationNone)})
		readsBack(t, file, want, Options{}, "bp")
	})
	t.Run("unregistered", func(t *testing.T) {
		opt := Options{Packer: unregistered{}}
		file, want := buildFile(t, opt)
		readsBack(t, file, want, opt, "")
	})
}

// TestFooterSumMatchesDecode: every v2 chunk's footer sum equals the wrapping
// sum of its decoded values.
func TestFooterSumMatchesDecode(t *testing.T) {
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range r.Series() {
		chunks, err := r.Chunks(series)
		if err != nil {
			t.Fatal(err)
		}
		for ci, m := range chunks {
			if !m.HasStats {
				t.Fatalf("%s chunk %d missing stats", series, ci)
			}
			_, vals, err := r.ChunkColumns(series, ci)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, v := range vals {
				sum += v
			}
			if sum != m.Sum {
				t.Fatalf("%s chunk %d footer sum %d, decoded %d", series, ci, m.Sum, sum)
			}
		}
	}
}

func TestFloatFooterSum(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	scaled := []FloatPoint{{1, 1.5}, {2, -0.25}, {3, 10}}
	raw := []FloatPoint{{1, math.Pi}, {2, math.E}}
	if err := w.AppendFloats("s.scaled", scaled); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFloats("s.raw", raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := r.Chunks("s.scaled")
	if err != nil {
		t.Fatal(err)
	}
	// 1.5, -0.25, 10 at precision 2 scale to 150, -25, 1000.
	if !sc[0].HasStats || sc[0].Sum != 1125 {
		t.Fatalf("scaled chunk stats: %+v", sc[0])
	}
	rc, err := r.Chunks("s.raw")
	if err != nil {
		t.Fatal(err)
	}
	if rc[0].HasStats {
		t.Fatalf("raw chunk claims stats: %+v", rc[0])
	}
}

func TestChunkHandlePartialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, opt := range []Options{
		{},                         // BOS-B default: the partial path, one block per chunk
		{BlockSize: 128},           // 4-8 blocks per chunk: ranges start and end mid-block
		{Packer: bitpack.Packer{}}, // non-core packer: full-decode fallback
	} {
		file, _ := buildFile(t, opt)
		r, err := OpenReader(file, file.Size(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, series := range r.Series() {
			chunks, err := r.Chunks(series)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range chunks {
				wantT, wantV, err := r.ChunkColumns(series, ci)
				if err != nil {
					t.Fatal(err)
				}
				n := len(wantV)
				minV := wantV[rng.Intn(n)]
				maxV := minV + 50
				for _, rg := range [][2]int{{0, n}, {0, 0}, {n / 3, 2 * n / 3}, {rng.Intn(n + 1), n}, {-5, n + 5}, {3, -1}} {
					lo := min(max(rg[0], 0), n)
					hi := min(max(rg[1], 0), n)
					lo = min(lo, hi)
					// A fresh handle per read: ValueRange(0, n) memoizes
					// the full column, which would bypass the
					// block-skipping path (and FilterValues' band
					// skipping below).
					h, err := r.OpenChunk(series, ci)
					if err != nil {
						t.Fatal(err)
					}
					if times, err := h.Times(0, n); err != nil || !slices.Equal(times, wantT) {
						t.Fatalf("handle times %d, %v; want %d", len(times), err, len(wantT))
					}
					got, partial, err := h.ValueRange(rg[0], rg[1])
					if err != nil {
						t.Fatalf("range %v: %v", rg, err)
					}
					if want := opt.Packer == nil && hi-lo < n; partial != want {
						t.Fatalf("range %v: partial %v, want %v", rg, partial, want)
					}
					if len(got) != hi-lo {
						t.Fatalf("range %v: %d values, want %d", rg, len(got), hi-lo)
					}
					for i := range got {
						if got[i] != wantV[lo+i] {
							t.Fatalf("range %v value %d: got %d want %d", rg, i, got[i], wantV[lo+i])
						}
					}
					h.Release()

					h, err = r.OpenChunk(series, ci)
					if err != nil {
						t.Fatal(err)
					}
					var fgot []Point
					if _, err := h.FilterValues(rg[0], rg[1], minV, maxV, func(i int, v int64) {
						fgot = append(fgot, Point{int64(i), v})
					}); err != nil {
						t.Fatal(err)
					}
					h.Release()
					var ref []Point
					for i := lo; i < hi; i++ {
						if v := wantV[i]; v >= minV && v <= maxV {
							ref = append(ref, Point{int64(i), v})
						}
					}
					if !slices.Equal(fgot, ref) {
						t.Fatalf("filter %v [%d,%d]: got %v, want %v", rg, minV, maxV, fgot, ref)
					}
				}
			}
		}
	}
}

// TestChunkHandleCacheHit: a warmed cache short-circuits OpenChunk into the
// decoded columns, and partial reads still agree.
func TestChunkHandleCacheHit(t *testing.T) {
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetCache(chunkcache.New(1<<20), 1)
	series := r.Series()[0]
	wantT, wantV, err := r.ChunkColumns(series, 0) // warms the cache
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.OpenChunk(series, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, partial, err := h.ValueRange(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		t.Fatal("cache hit reported a partial decode")
	}
	for i, v := range got {
		if v != wantV[3+i] {
			t.Fatalf("cached value %d: got %d want %d", i, v, wantV[3+i])
		}
	}
	if times, err := h.Times(0, len(wantT)); err != nil || !slices.Equal(times, wantT) || !h.Cached() {
		t.Fatal("cached times mismatch, or the handle does not report the decoded hit")
	}
}

// TestChunkHandleRelease: Release returns a cold handle's buffers once, so a
// second Release cannot hand one set of buffers to two later handles, and a
// cache-hit handle returns nothing, so later cold reads cannot write into
// the cached columns.
func TestChunkHandleRelease(t *testing.T) {
	file, want := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetCache(chunkcache.New(1<<20), 1)
	cold := r.WithoutCache()
	series := r.Series()[0]
	chunks, err := r.Chunks(series)
	if err != nil {
		t.Fatal(err)
	}
	chunkPoints := func(ci int) []Point {
		off := 0
		for _, m := range chunks[:ci] {
			off += m.Count
		}
		return want[series][off : off+chunks[ci].Count]
	}
	open := func(r *Reader, ci int) *ChunkHandle {
		h, err := r.OpenChunk(series, ci)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	check := func(what string, ci int, times, vals []int64) {
		t.Helper()
		pts := chunkPoints(ci)
		if len(times) != len(pts) || len(vals) != len(pts) {
			t.Fatalf("%s: %d times and %d values, want %d", what, len(times), len(vals), len(pts))
		}
		for i, p := range pts {
			if times[i] != p.T || vals[i] != p.V {
				t.Fatalf("%s: point %d = (%d, %d), want %+v", what, i, times[i], vals[i], p)
			}
		}
	}
	whole := func(h *ChunkHandle) []int64 {
		vals, _, err := h.ValueRange(0, h.Meta.Count)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	timesOf := func(h *ChunkHandle) []int64 {
		times, err := h.Times(0, h.Meta.Count)
		if err != nil {
			t.Fatal(err)
		}
		return times
	}

	// The larger chunk first: two handles sharing buffers would then read
	// the smaller one over it in place.
	big, small := 0, 1
	if chunks[big].Count < chunks[small].Count {
		big, small = small, big
	}
	h := open(cold, big)
	h.Release()
	h.Release()
	a, b := open(cold, big), open(cold, small)
	aVals, bVals := whole(a), whole(b)
	check("larger chunk beside the smaller", big, timesOf(a), aVals)
	check("smaller chunk beside the larger", small, timesOf(b), bVals)
	a.Release()
	b.Release()

	if _, _, err := r.ChunkColumns(series, 2); err != nil { // fills the cache
		t.Fatal(err)
	}
	hit := open(r, 2)
	hit.Release()
	hit.Release()
	for ci := range chunks {
		c := open(cold, ci)
		check("cold read after a cache-hit Release", ci, timesOf(c), whole(c))
		c.Release()
	}
	times, vals, err := r.ChunkColumns(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("cached chunk 2", 2, times, vals)
}

// coldChunk writes vals as one chunk of a BOS-B file, one timestamp unit
// apart, and opens it with the cache off.
func coldChunk(tb testing.TB, vals []int64) *Reader {
	tb.Helper()
	pts := make([]Point, len(vals))
	for i, v := range vals {
		pts[i] = Point{T: int64(i), V: v}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Append("s", pts); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// partialReads returns the two reads the pushdown tier makes of an exclusive
// chunk, each as a query makes it: open the chunk, read positions [lo, hi),
// release. The first reads the values (a window), the second filters them
// to [minV, MaxInt64].
func partialReads(tb testing.TB, r *Reader, lo, hi int, minV int64) (window, filter func()) {
	open := func() *ChunkHandle {
		h, err := r.OpenChunk("s", 0)
		if err != nil {
			tb.Fatal(err)
		}
		return h
	}
	window = func() {
		h := open()
		if got, partial, err := h.ValueRange(lo, hi); err != nil || !partial || len(got) != hi-lo {
			tb.Fatalf("range: %d values, partial %v, err %v", len(got), partial, err)
		}
		h.Release()
	}
	filter = func() {
		h := open()
		if _, err := h.FilterValues(lo, hi, minV, math.MaxInt64, func(int, int64) {}); err != nil {
			tb.Fatal(err)
		}
		h.Release()
	}
	return window, filter
}

// TestColdPartialReadsAllocateNoColumn: with the cache off, a window or a
// filter over one 16,384-point chunk allocates the handle and nothing else
// once the read buffers are pooled.
func TestColdPartialReadsAllocateNoColumn(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is put back under -race")
	}
	const n, lo, hi, runs = 16384, 3000, 11192, 50
	vals := dataset.All()[0].Ints(n)
	window, filter := partialReads(t, coldChunk(t, vals), lo, hi, slices.Max(vals)/2)
	for _, c := range []struct {
		name string
		read func()
	}{{"ValueRange", window}, {"FilterValues", filter}} {
		c.read() // fills the pool
		if allocs := testing.AllocsPerRun(runs, c.read); allocs > 1 {
			t.Errorf("%s: %.1f allocations per read, want at most 1 (the handle)", c.name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.read()
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 1024 {
			t.Errorf("%s: %d bytes allocated per read, want under 1 KiB", c.name, perRead)
		}
	}
}

// BenchmarkChunkPartial times the two partial reads the pushdown tier runs on
// an exclusive chunk, on one 16,384-point BOS-B chunk per dataset stand-in:
// ValueRange over 8,192 positions starting mid-block (agg_cold's window
// shape) and FilterValues(p99, MaxInt64) over the same positions (its filter
// shape). Each iteration opens the chunk, reads and releases it, as a query
// does, so the time column's decode is timed too.
func BenchmarkChunkPartial(b *testing.B) {
	const n, span, lo = 16384, 8192, 4000
	for _, d := range dataset.All() {
		vals := d.Ints(n)
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		window, filter := partialReads(b, coldChunk(b, vals), lo, lo+span, sorted[n*99/100])
		for _, c := range []struct {
			name string
			read func()
		}{{"range", window}, {"filter", filter}} {
			b.Run(d.Abbr+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.read()
				}
			})
		}
	}
}
