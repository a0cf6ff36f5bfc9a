package tsfile

import (
	"fmt"
	"math"
	"slices"

	"bos/internal/chunkcache"
	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/ts2diff"
)

// This file is the partial-decode surface internal/pushdown and the raw
// scans build on: a ChunkHandle exposes one chunk's fully-decoded time
// column next to its still-encoded value column, so a reader can
// binary-search the time window first and then touch only the value bits
// that matter. Both value reads take a position range: the blocks wholly
// before it are skipped by header arithmetic (core.SkipBlock), the blocks it
// overlaps are decoded whole or filtered, and the blocks after it are never
// read. A value filter also skips the value planes its band cannot reach
// (core.FilterBlock).
//
// A handle opened on a cache miss reads into pooled buffers — the chunk
// body, the time column and a value scratch — and Release returns them, so a
// window, a filter or a raw scan over a cold chunk allocates no column.
// OpenChunk never fills the cache: a window or filter reads part of a chunk,
// and caching a part would serve later reads an incomplete column. An
// Iterator and a Query open a handle the same way, through readChunk, when
// there is no cache or it declines their miss.
//
// Partial decode is only possible for chunks packed by a BOS-family packer
// (*core.Packer); any other packer — and any chunk already decoded into the
// chunk cache — transparently falls back to the full value column.

// ChunkColumns returns the decoded columns of one integer chunk, consulting
// the chunk cache like Query does. ci is the chunk's index within the
// series' chunk list. It reads the whole chunk, and on a miss the columns
// are new: the cache admits them when they fit. The returned slices may be
// shared with the cache and must be treated as read-only.
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

// ChunkHandle is one chunk opened for partial access: the time column
// decoded, the value column kept encoded until a ValueRange or FilterValues
// call needs (some of) it. Release returns its buffers; the handle and
// everything it returned must not be used after Release.
type ChunkHandle struct {
	Meta ChunkMeta

	times     []int64
	vals      []int64 // full value column, when cached or fully decoded
	vcol      []byte  // encoded value column, when vals == nil
	precision int     // a scaled chunk's decimal precision
	packer    codec.Packer
	bufs      *readBufs // pooled buffers behind times, vcol and decoded values; nil on a cache hit
}

// OpenChunk opens one integer chunk for partial access. A chunk-cache hit
// returns the decoded columns directly; a miss reads the chunk into pooled
// buffers and decodes only the time column, leaving the value column
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
	if times, vals, ok := chunkcache.Get[int64](r.cache, r.cacheID, series, ci); ok {
		return &ChunkHandle{Meta: m, packer: r.packerFor(m), times: times, vals: vals}, nil
	}
	h := new(ChunkHandle)
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
	*h = ChunkHandle{Meta: m, packer: r.packerFor(m), bufs: readPool.Get().(*readBufs)}
	if err := h.read(r); err != nil {
		h.Release()
		return err
	}
	return nil
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
// a cache hit holds cache slices and returns nothing; a second Release does
// nothing.
func (h *ChunkHandle) Release() {
	if h.bufs == nil {
		return
	}
	readPool.Put(h.bufs)
	h.bufs, h.times, h.vals, h.vcol = nil, nil, nil, nil
}

// Times is the chunk's full time column, read-only.
func (h *ChunkHandle) Times() []int64 { return h.times }

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
	hi = min(max(hi, 0), len(h.times))
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
	total, blocks, err := codec.ReadUvarint(h.vcol)
	if err != nil || total != uint64(len(h.times)) {
		return nil, 0, fmt.Errorf("%w: value column count", ErrCorrupt)
	}
	first := 0
	for len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, len(h.times)-first); err != nil {
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

// ValueRange returns the chunk's values at positions [lo, hi) (clamped),
// read-only, valid until the handle's next ValueRange or FilterValues call
// or its Release. When the column is BOS-packed and the range is a strict
// sub-range, the blocks before lo are skipped by header arithmetic, the
// blocks overlapping the range are decoded whole into the handle's value
// scratch, and the blocks after hi are never touched; the second result
// reports whether that partial path ran (false means the full column was
// decoded or cached).
func (h *ChunkHandle) ValueRange(lo, hi int) ([]int64, bool, error) {
	lo, hi = h.clamp(lo, hi)
	if !h.partial() || (lo == 0 && hi == len(h.times)) {
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
	vals := slices.Grow(h.bufs.vals[:0], len(h.times))
	for first+len(vals) < hi && len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, len(h.times)-first-len(vals)); err != nil {
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
// minV <= v <= maxV. For a BOS-packed column the blocks wholly outside the
// range are skipped unread, and the per-class value bands decide which planes
// of the others are decoded at all; the first result reports whether any
// block or plane was skipped.
func (h *ChunkHandle) FilterValues(lo, hi int, minV, maxV int64, emit func(i int, v int64)) (bool, error) {
	lo, hi = h.clamp(lo, hi)
	if !h.partial() {
		vals, err := h.decodeAll()
		if err != nil {
			return false, err
		}
		for i := lo; i < hi; i++ {
			if v := vals[i]; v >= minV && v <= maxV {
				emit(i, v)
			}
		}
		return false, nil
	}
	blocks, first, err := h.blocksFrom(lo)
	if err != nil {
		return false, err
	}
	skipped := first > 0
	seen := first
	for seen < hi && len(blocks) > 0 {
		if _, err := codec.BlockLen(blocks, len(h.times)-seen); err != nil {
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
	return skipped || seen < len(h.times), nil
}
