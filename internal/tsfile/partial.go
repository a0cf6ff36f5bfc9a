package tsfile

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bos/internal/chunkcache"
	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/ts2diff"
)

// This file is the partial-decode surface internal/pushdown and the raw
// scans build on: a ChunkHandle reads one chunk by position range. Span
// finds the positions of a time range, Times returns the timestamps of a
// position range, and the two value reads take a position range too.
//
// A handle reads one of three sources:
//
//   - a decoded cache entry: the columns are read in place and nothing is
//     decoded (Cached);
//   - a packed cache entry (packed.go): Span decodes only the time blocks
//     its bounds fall in, from the entry's first-timestamp index, and the
//     value reads decode only the value blocks of their range;
//   - the file, on a miss the cache does not keep: the chunk body is read
//     and its whole time column decoded (TS2DIFF deltas carry across
//     blocks), and the value reads skip the BOS blocks wholly before their
//     range by header arithmetic (core.SkipBlock), decode the blocks they
//     overlap whole or filtered, and never read the blocks after it. A
//     value filter also skips the value planes its band cannot reach
//     (core.FilterBlock). Any packer other than a BOS-family one
//     (*core.Packer) falls back to the full value column.
//
// A handle on a packed entry or the file reads into pooled buffers — the
// chunk body, the time column and a value scratch — and Release returns
// them, so a window, a filter or a raw scan that the cache does not serve
// from decoded columns allocates no column. OpenChunk never fills the
// cache: a window or filter reads part of a chunk, and caching a part would
// serve later reads an incomplete column. An Iterator and a Query open a
// handle the same way, through readChunk, when there is no cache, it
// declines their miss or it holds the chunk packed.

// ChunkColumns returns the decoded columns of one integer chunk, consulting
// the chunk cache like Query does. ci is the chunk's index within the
// series' chunk list. It reads the whole chunk: a decoded hit returns the
// cache's columns, a packed hit and a miss return new ones, which the cache
// admits when they fit. The returned slices may be shared with the cache
// and must be treated as read-only.
func (r *Reader) ChunkColumns(series string, ci int) ([]int64, []int64, error) {
	m, err := r.chunkMeta(series, ci)
	if err != nil {
		return nil, nil, err
	}
	times, vals, _, err := readChunk[int64](r, series, ci, m, math.MinInt64, math.MaxInt64, nil)
	return times, vals, err
}

func (r *Reader) chunkMeta(series string, ci int) (ChunkMeta, error) {
	chunks, ok := r.index[series]
	if !ok {
		return ChunkMeta{}, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	if ci < 0 || ci >= len(chunks) {
		return ChunkMeta{}, fmt.Errorf("%w: chunk index %d of %d", ErrCorrupt, ci, len(chunks))
	}
	return chunks[ci], nil
}

// ChunkHandle is one chunk opened for access by position range. Release
// returns its buffers; the handle and everything it returned must not be
// used after Release.
type ChunkHandle struct {
	Meta ChunkMeta

	times     []int64 // the timestamps at positions [tfirst, tfirst+len(times))
	tfirst    int     // 0 unless a packed entry's blocks are decoded
	vals      []int64 // full value column, when cached or fully decoded
	vcol      []byte  // encoded value column of a file read, when vals == nil
	pk        *packedChunk
	kind      byte // how the stored integers read back: the chunk's kind, or a packed entry's
	precision int  // a scaled chunk's decimal precision
	packer    codec.Packer
	bufs      *readBufs // pooled buffers behind times, vcol and decoded values; nil on a decoded hit
}

// OpenChunk opens one integer chunk for access by position range. A hit on
// a decoded cache entry reads its columns; a hit on a packed entry decodes
// blocks of it on demand into pooled buffers; a miss reads the chunk into
// pooled buffers and decodes only the time column, leaving the value column
// encoded. OpenChunk never populates the cache. The caller must Release the
// handle.
func (r *Reader) OpenChunk(series string, ci int) (*ChunkHandle, error) {
	m, err := r.chunkMeta(series, ci)
	if err != nil {
		return nil, err
	}
	if !holds[int64](m.Kind) {
		return nil, kindError(series, m)
	}
	h := new(ChunkHandle)
	if v, ok := r.cache.Get(r.cacheKey(series, ci)); ok {
		switch c := v.(type) {
		case *decoded[int64]:
			*h = ChunkHandle{Meta: m, kind: kindInt, times: c.times, vals: c.vals}
			return h, nil
		case *packedChunk:
			h.openPacked(m, c)
			return h, nil
		}
	}
	if err := r.open(h, m); err != nil {
		return nil, err
	}
	return h, nil
}

// open reads chunk m, of either value kind, into pooled buffers held by h
// and decodes its time column, leaving the value column encoded; ValueRange
// returns a float chunk's stored integers. It neither consults nor fills
// the cache. On error h holds nothing.
func (r *Reader) open(h *ChunkHandle, m ChunkMeta) error {
	*h = ChunkHandle{Meta: m, kind: m.Kind, packer: r.packerFor(m), bufs: readPool.Get().(*readBufs)}
	if err := h.read(r); err != nil {
		h.Release()
		return err
	}
	return nil
}

// openPacked opens a packed cache entry of chunk m into h, with pooled
// buffers for the blocks its reads decode.
func (h *ChunkHandle) openPacked(m ChunkMeta, p *packedChunk) {
	*h = ChunkHandle{Meta: m, pk: p, kind: p.kind, precision: p.precision, bufs: readPool.Get().(*readBufs)}
}

// read loads the chunk body into the handle's buffers and decodes the time
// column.
func (h *ChunkHandle) read(r *Reader) error {
	b := h.bufs
	body, err := r.readChunkBody(h.Meta, b)
	if err != nil {
		return err
	}
	precision, cols, err := parseChunkHeader(body, h.Meta)
	if err != nil {
		return err
	}
	h.precision = precision
	tcol, rest, err := splitColumn(cols, h.Meta.Count, "time")
	if err != nil {
		return err
	}
	if h.vcol, _, err = splitColumn(rest, h.Meta.Count, "value"); err != nil {
		return err
	}
	if b.times, err = ts2diff.New(h.packer, 0).AppendDecode(b.times[:0], tcol); err != nil {
		return fmt.Errorf("%w: time column: %v", ErrCorrupt, err)
	}
	h.times = b.times
	return nil
}

// Release returns the handle's pooled buffers. Nothing the handle returned —
// Times, ValueRange's values, FilterValues' emitted values — may be used
// after Release, and the handle itself may not be used again. A handle from
// a decoded hit holds cache slices and returns nothing; a second Release
// does nothing.
func (h *ChunkHandle) Release() {
	if h.bufs == nil {
		return
	}
	readPool.Put(h.bufs)
	h.bufs, h.times, h.vals, h.vcol, h.pk = nil, nil, nil, nil, nil
}

// Cached reports whether the handle reads a decoded cache entry, so that
// its reads decode nothing.
func (h *ChunkHandle) Cached() bool { return h.bufs == nil }

// Span returns the positions [lo, hi) of the chunk's timestamps in
// [minT, maxT]; hi < Meta.Count when one lies past maxT. On a packed entry
// it decodes only the time blocks from lo's to hi's, which Times then
// reads.
func (h *ChunkHandle) Span(minT, maxT int64) (lo, hi int, err error) {
	if h.pk == nil {
		lo, hi = span(h.times, minT, maxT)
		return lo, hi, nil
	}
	blocks := h.pk.blocks
	// lo lies in block l-1 or at its end, hi in block u-1 or at its end.
	l := sort.Search(len(blocks), func(b int) bool { return blocks[b].first >= minT })
	u := sort.Search(len(blocks), func(b int) bool { return blocks[b].first > maxT })
	if err := h.decodeTimes(max(l-1, 0), max(u-1, l-1, 0)); err != nil {
		return 0, 0, err
	}
	lo, hi = span(h.times, minT, maxT)
	return h.tfirst + lo, h.tfirst + hi, nil
}

// decodeTimes decodes a packed entry's time blocks [from, to] into the
// handle's time buffer, unless they are there already.
func (h *ChunkHandle) decodeTimes(from, to int) error {
	if len(h.pk.blocks) == 0 || (from*packedBlockLen >= h.tfirst && to*packedBlockLen+h.pk.blockLen(to) <= h.tfirst+len(h.times)) {
		return nil
	}
	times := h.bufs.times[:0]
	for b := from; b <= to; b++ {
		var err error
		if times, err = h.pk.appendTimes(times, b); err != nil {
			return err
		}
	}
	h.bufs.times, h.times, h.tfirst = times, times, from*packedBlockLen
	return nil
}

// Times returns the timestamps at positions [lo, hi) (clamped), read-only,
// valid until the handle's next Span or Times call or its Release. On a
// packed entry it decodes the blocks the range needs unless Span already
// has.
func (h *ChunkHandle) Times(lo, hi int) ([]int64, error) {
	lo, hi = h.clamp(lo, hi)
	if lo == hi {
		return nil, nil
	}
	if lo < h.tfirst || hi > h.tfirst+len(h.times) {
		// Only a packed entry holds part of its time column.
		if err := h.decodeTimes(lo/packedBlockLen, (hi-1)/packedBlockLen); err != nil {
			return nil, err
		}
	}
	return h.times[lo-h.tfirst : hi-h.tfirst], nil
}

// decodeAll decodes the full value column into the value scratch and
// memoizes it.
func (h *ChunkHandle) decodeAll() ([]int64, error) {
	if h.vals == nil {
		vals, err := codec.NewBlockwise(h.packer, 0).AppendDecode(h.bufs.vals[:0], h.vcol)
		if err != nil {
			return nil, fmt.Errorf("%w: value column: %v", ErrCorrupt, err)
		}
		h.vals, h.bufs.vals = vals, vals
	}
	return h.vals, nil
}

// clamp bounds a position range to the chunk's positions, empty when
// inverted.
func (h *ChunkHandle) clamp(lo, hi int) (int, int) {
	hi = min(max(hi, 0), h.Meta.Count)
	return min(max(lo, 0), hi), hi
}

// partial reports whether the value column is read block by block: BOS-packed
// and not yet decoded.
func (h *ChunkHandle) partial() bool {
	_, ok := h.packer.(*core.Packer)
	return ok && h.vals == nil
}

// blocksFrom validates the value column's count header, skips the packed
// blocks that lie wholly before position lo by header arithmetic, and
// returns the remaining block stream with the chunk position of its first
// value.
func (h *ChunkHandle) blocksFrom(lo int) ([]byte, int, error) {
	n := h.Meta.Count
	total, blocks, err := codec.ReadUvarint(h.vcol)
	if err != nil || total != uint64(n) {
		return nil, 0, fmt.Errorf("%w: value column count", ErrCorrupt)
	}
	first := 0
	for len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, n-first); err != nil {
			return nil, 0, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		bn, rest, err := core.SkipBlock(blocks)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		if first+bn > lo {
			break
		}
		first += bn
		blocks = rest
	}
	return blocks, first, nil
}

// packedValues decodes the value blocks of a packed entry that positions
// [lo, hi) overlap into the value scratch, and reports whether it skipped
// any block.
func (h *ChunkHandle) packedValues(lo, hi int) ([]int64, bool, error) {
	if lo == hi {
		return nil, len(h.pk.blocks) > 0, nil
	}
	from, to := lo/packedBlockLen, (hi-1)/packedBlockLen
	vals := h.bufs.vals[:0]
	for b := from; b <= to; b++ {
		var err error
		if vals, err = h.pk.appendValues(vals, b); err != nil {
			return nil, false, err
		}
	}
	h.bufs.vals = vals[:0]
	first := from * packedBlockLen
	return vals[lo-first : hi-first], from > 0 || to < len(h.pk.blocks)-1, nil
}

// ValueRange returns the chunk's values at positions [lo, hi) (clamped),
// read-only, valid until the handle's next ValueRange or FilterValues call
// or its Release. A packed entry decodes only the blocks the range
// overlaps. When the file's column is BOS-packed and the range is a strict
// sub-range, the blocks before lo are skipped by header arithmetic, the
// blocks overlapping the range are decoded whole into the handle's value
// scratch, and the blocks after hi are never touched. The second result
// reports whether a block was left undecoded (false means the full column
// was decoded, or a decoded cache entry read: see Cached).
func (h *ChunkHandle) ValueRange(lo, hi int) ([]int64, bool, error) {
	lo, hi = h.clamp(lo, hi)
	if h.pk != nil {
		return h.packedValues(lo, hi)
	}
	n := h.Meta.Count
	if !h.partial() || (lo == 0 && hi == n) {
		vals, err := h.decodeAll()
		if err != nil {
			return nil, false, err
		}
		return vals[lo:hi], false, nil
	}
	blocks, first, err := h.blocksFrom(lo)
	if err != nil {
		return nil, false, err
	}
	// The overlapping blocks, decoded whole into scratch sized once for the
	// whole column: BlockLen holds every block to what the column lacks.
	vals := slices.Grow(h.bufs.vals[:0], n)
	for first+len(vals) < hi && len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, n-first-len(vals)); err != nil {
			return nil, false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		if vals, blocks, err = h.packer.Unpack(blocks, vals); err != nil {
			return nil, false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
	}
	h.bufs.vals = vals[:0]
	if first+len(vals) < hi {
		return nil, false, fmt.Errorf("%w: value column holds %d of [%d,%d)", ErrCorrupt, first+len(vals), lo, hi)
	}
	return vals[lo-first : hi-first], true, nil
}

// FilterValues calls emit(i, v), in position order, for every value v at a
// position i in [lo, hi) (clamped as ValueRange clamps) with
// minV <= v <= maxV. A packed entry decodes the value blocks the range
// overlaps. For a BOS-packed file column the blocks wholly outside the
// range are skipped unread, and the per-class value bands decide which
// planes of the others are decoded at all. The first result reports
// whether any block or plane was skipped.
func (h *ChunkHandle) FilterValues(lo, hi int, minV, maxV int64, emit func(i int, v int64)) (bool, error) {
	lo, hi = h.clamp(lo, hi)
	if h.pk != nil || !h.partial() {
		vals, skipped, err := h.ValueRange(lo, hi)
		if err != nil {
			return false, err
		}
		for i, v := range vals {
			if v >= minV && v <= maxV {
				emit(lo+i, v)
			}
		}
		return skipped, nil
	}
	n := h.Meta.Count
	blocks, first, err := h.blocksFrom(lo)
	if err != nil {
		return false, err
	}
	skipped := first > 0
	seen := first
	for seen < hi && len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, n-seen); err != nil {
			return false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		start := seen
		bn, sk, rest, err := core.FilterBlock(blocks, minV, maxV, func(i int, v int64) {
			if p := start + i; p >= lo && p < hi {
				emit(p, v)
			}
		})
		if err != nil {
			return false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		skipped = skipped || sk
		seen += bn
		blocks = rest
	}
	if seen < hi {
		return false, fmt.Errorf("%w: value column holds %d of [%d,%d)", ErrCorrupt, seen, lo, hi)
	}
	return skipped || seen < n, nil
}

// cacheKey is chunk ci of series in r's cache.
func (r *Reader) cacheKey(series string, ci int) chunkcache.Key {
	return chunkcache.Key{File: r.cacheID, Series: series, Chunk: ci}
}
