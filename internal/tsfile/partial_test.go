package tsfile

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bos/internal/bitpack"
	"bos/internal/chunkcache"
	"bos/internal/codec"
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

// rewriteAsLegacy swaps a v2 file's footer for the legacy encoding of the
// same chunk directory.
func rewriteAsLegacy(t *testing.T, file *bytes.Reader, opt Options) *bytes.Reader {
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
	idx := encodeLegacyIndex(r.Series(), index)
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
	legacy := rewriteAsLegacy(t, v2File, opt)

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
				for _, rg := range [][2]int{{0, n}, {0, 0}, {n / 3, 2 * n / 3}, {rng.Intn(n + 1), n}, {-5, n + 5}} {
					// A fresh handle per read: ValueRange(0, n) memoizes
					// the full column, which would bypass the
					// block-skipping path (and FilterValues' band
					// skipping below).
					h, err := r.OpenChunk(series, ci)
					if err != nil {
						t.Fatal(err)
					}
					if len(h.Times()) != len(wantT) {
						t.Fatalf("handle times %d, want %d", len(h.Times()), len(wantT))
					}
					got, partial, err := h.ValueRange(rg[0], rg[1])
					if err != nil {
						t.Fatalf("range %v: %v", rg, err)
					}
					lo, hi := rg[0], rg[1]
					if lo < 0 {
						lo = 0
					}
					if hi > n {
						hi = n
					}
					if lo > hi {
						lo = hi
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
				}
				h, err := r.OpenChunk(series, ci)
				if err != nil {
					t.Fatal(err)
				}
				minV := wantV[rng.Intn(n)]
				maxV := minV + 50
				var got []Point
				if _, err := h.FilterValues(minV, maxV, func(i int, v int64) {
					got = append(got, Point{int64(i), v})
				}); err != nil {
					t.Fatal(err)
				}
				var ref []Point
				for i, v := range wantV {
					if v >= minV && v <= maxV {
						ref = append(ref, Point{int64(i), v})
					}
				}
				if len(got) != len(ref) {
					t.Fatalf("filter [%d,%d]: %d hits, want %d", minV, maxV, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("filter hit %d: got %+v want %+v", i, got[i], ref[i])
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
	if len(h.Times()) != len(wantT) {
		t.Fatal("cached times length mismatch")
	}
}

// BenchmarkChunkPartial times the two partial reads the pushdown tier runs on
// an exclusive chunk, on one 16,384-point BOS-B chunk per dataset stand-in:
// ValueRange over 8,192 positions starting mid-block (agg_cold's window
// shape) and FilterValues(p99, MaxInt64) (its filter shape). The handle is
// opened once, so only the value column's reads are timed.
func BenchmarkChunkPartial(b *testing.B) {
	const n, span, lo = 16384, 8192, 4000
	for _, d := range dataset.All() {
		vals := d.Ints(n)
		pts := make([]Point, n)
		for i, v := range vals {
			pts[i] = Point{T: int64(i), V: v}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, Options{})
		if err := w.Append("s", pts); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		file := bytes.NewReader(buf.Bytes())
		r, err := OpenReader(file, file.Size(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		h, err := r.OpenChunk("s", 0)
		if err != nil {
			b.Fatal(err)
		}
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		p99 := sorted[n*99/100]
		b.Run(d.Abbr+"/range", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got, partial, err := h.ValueRange(lo, lo+span); err != nil || !partial || len(got) != span {
					b.Fatalf("range: %d values, partial %v, err %v", len(got), partial, err)
				}
			}
		})
		b.Run(d.Abbr+"/filter", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.FilterValues(p99, math.MaxInt64, func(int, int64) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
