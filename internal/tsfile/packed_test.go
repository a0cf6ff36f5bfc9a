package tsfile

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bos/internal/dataset"
)

// packedTimes returns n strictly increasing timestamps of the given shape.
func packedTimes(rng *rand.Rand, shape string, n int) []int64 {
	times := make([]int64, n)
	for i := range times {
		switch shape {
		case "regular": // a 1 s grid in milliseconds
			times[i] = 1_700_000_000_000 + int64(i)*1000
		case "irregular":
			if i == 0 {
				times[i] = -5000
			} else {
				times[i] = times[i-1] + 1 + rng.Int63n(1<<20)
			}
		case "extremes": // deltas that wrap int64
			times[i] = math.MinInt64 + int64(i)
			if i == n-1 && n > 1 {
				times[i] = math.MaxInt64
			}
		}
	}
	return times
}

// TestPackedEntryRoundTrip: a packed entry unpacks to the columns it was
// packed from, whole and block by block, for chunks that end on, before and
// after a block boundary, and Span finds the same positions as a binary
// search of the whole time column, for ranges inside blocks, across them,
// on their first timestamps, empty, inverted and past both ends.
func TestPackedEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 2, 1023, 1024, 1025, 3000, 16384} {
		for _, shape := range []string{"regular", "irregular", "extremes"} {
			times := packedTimes(rng, shape, n)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(1<<40) - 1<<39
				if i%97 == 0 {
					vals[i] = math.MinInt64 + rng.Int63n(8)
				}
			}
			d := &decoded[int64]{times: times, vals: vals, kind: kindInt}
			v, size := d.Shrink()
			p := v.(*packedChunk)
			if size != p.size() || (n >= packedBlockLen && size >= d.size()) {
				t.Fatalf("n %d %s: packed size %d (reported %d), decoded %d", n, shape, p.size(), size, d.size())
			}
			gotT, gotV, err := p.unpack()
			if err != nil || !slices.Equal(gotT, times) || !slices.Equal(gotV, vals) {
				t.Fatalf("n %d %s: unpack differs (err %v)", n, shape, err)
			}
			h := new(ChunkHandle)
			h.openPacked(ChunkMeta{Count: n, MinT: times[0], MaxT: times[n-1]}, p)
			at := func(i int) int64 { return times[min(max(i, 0), n-1)] }
			for k := 0; k < 40; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				ranges := [][2]int64{
					{at(i), at(j)}, {at(i) + 1, at(j) - 1}, {at(min(i, j)), at(max(i, j))},
					{at(i / packedBlockLen * packedBlockLen), at(j)},
					{math.MinInt64, at(j)}, {at(i), math.MaxInt64}, {math.MinInt64, math.MaxInt64},
				}
				for _, rg := range ranges {
					lo, hi, err := h.Span(rg[0], rg[1])
					wlo, whi := span(times, rg[0], rg[1])
					if err != nil || lo != wlo || hi != whi {
						t.Fatalf("n %d %s: Span%v = [%d, %d), %v; want [%d, %d)", n, shape, rg, lo, hi, err, wlo, whi)
					}
					got, err := h.Times(lo, hi)
					if err != nil || !slices.Equal(got, times[lo:hi]) {
						t.Fatalf("n %d %s: Times(%d, %d) differs (err %v)", n, shape, lo, hi, err)
					}
					gv, skipped, err := h.ValueRange(lo, hi)
					if err != nil || !slices.Equal(gv, vals[lo:hi]) {
						t.Fatalf("n %d %s: ValueRange(%d, %d) differs (err %v)", n, shape, lo, hi, err)
					}
					if whole := lo < hi && lo < packedBlockLen && hi > (n-1)/packedBlockLen*packedBlockLen; lo < hi && skipped == whole {
						t.Fatalf("n %d %s: ValueRange(%d, %d) reports skipped %v", n, shape, lo, hi, skipped)
					}
				}
			}
			// Times of a range Span did not decode decodes its blocks.
			if got, err := h.Times(n/2, n); err != nil || !slices.Equal(got, times[n/2:]) {
				t.Fatalf("n %d %s: Times(%d, %d) differs (err %v)", n, shape, n/2, n, err)
			}
			h.Release()
		}
	}
}

// TestPackedRegularTimesAtWidthZero: the first timestamp of a block is kept
// out of its deltas, so a series on a regular grid packs each block's times
// into a few header bytes: the deltas' count, their minimum and width 0.
func TestPackedRegularTimesAtWidthZero(t *testing.T) {
	const n = 16384
	times := packedTimes(nil, "regular", n)
	p := packColumns(times, make([]int64, n), kindInt, 0)
	for b, blk := range p.blocks {
		if tb := blk.v - blk.t; tb > 6 {
			t.Fatalf("block %d: %d bytes of packed times, want a width-0 header", b, tb)
		}
	}
	if perPoint := float64(p.size()) / n; perPoint > 0.1 {
		t.Fatalf("%.3f bytes a point for a constant regular chunk", perPoint)
	}
}

// TestShrinkFloatsBitExact: packing a float entry keeps every value's bits.
// A scaled chunk packs its scaled integers; values that do not scale at the
// chunk's precision (which a correct chunk never holds) pack as raw bits,
// and so does a raw chunk, NaN payloads and -0 included.
func TestShrinkFloatsBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	for _, c := range []struct {
		name      string
		vals      []float64
		kind      byte
		precision int
		packed    byte
	}{
		{"scaled", []float64{1.25, -3.5, 0, 1e6, 0.75}, kindScaled, 2, kindScaled},
		{"scaled values that do not scale", []float64{1.25, math.Pi, 2}, kindScaled, 2, kindRaw},
		{"raw", []float64{math.Pi, nan, math.Copysign(0, -1), math.Inf(-1), 0.1}, kindRaw, 0, kindRaw},
	} {
		times := make([]int64, len(c.vals))
		for i := range times {
			times[i] = int64(i) * 7
		}
		d := &decoded[float64]{times: times, vals: slices.Clone(c.vals), kind: c.kind, precision: c.precision}
		v, _ := d.Shrink()
		p := v.(*packedChunk)
		if p.kind != c.packed {
			t.Fatalf("%s: packed kind %d, want %d", c.name, p.kind, c.packed)
		}
		_, stored, err := p.unpack()
		if err != nil {
			t.Fatal(err)
		}
		got := chunkValues[float64](nil, p.kind, p.precision, stored)
		for i, want := range c.vals {
			if math.Float64bits(got[i]) != math.Float64bits(want) || math.Float64bits(d.vals[i]) != math.Float64bits(want) {
				t.Fatalf("%s value %d: packed %v, decoded %v after Shrink, want %v", c.name, i, got[i], d.vals[i], want)
			}
		}
	}
}

// BenchmarkShrink times packing one 16,384-point integer chunk on a 1 s
// grid per dataset stand-in: the time the cache holds its lock for one pack.
// It reports the packed entry's bytes a point beside the decoded form's 16.
func BenchmarkShrink(b *testing.B) {
	const n = 16384
	times := packedTimes(nil, "regular", n)
	for _, ds := range dataset.All() {
		d := &decoded[int64]{times: times, vals: ds.Ints(n), kind: kindInt}
		b.Run(ds.Abbr, func(b *testing.B) {
			var size int64
			for i := 0; i < b.N; i++ {
				_, size = d.Shrink()
			}
			b.ReportMetric(float64(size)/n, "B/point")
		})
	}
}
