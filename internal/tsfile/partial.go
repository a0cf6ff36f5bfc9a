package tsfile

import (
	"fmt"

	"bos/internal/chunkcache"
	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/ts2diff"
)

// This file is the partial-decode surface internal/pushdown builds on: a
// ChunkHandle exposes one integer chunk's fully-decoded time column next to
// its still-encoded value column, so the evaluator can binary-search the time
// window first and then touch only the value bits that matter. A position
// range skips the blocks before it by header arithmetic (core.SkipBlock) and
// decodes the blocks it overlaps whole; a value filter skips the value
// planes its band cannot reach (core.FilterBlock).
//
// Partial decode is only possible for chunks packed by a BOS-family packer
// (*core.Packer); any other packer — and any chunk already decoded into the
// chunk cache — transparently falls back to the full value column.

// ChunkColumns returns the decoded columns of one integer chunk, consulting
// the chunk cache like Query does. ci is the chunk's index within the
// series' chunk list. The returned slices may be shared with the cache and
// must be treated as read-only.
func (r *Reader) ChunkColumns(series string, ci int) ([]int64, []int64, error) {
	m, err := r.chunkMeta(series, ci)
	if err != nil {
		return nil, nil, err
	}
	return readChunk[int64](r, series, ci, m)
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

// ChunkHandle is one integer chunk opened for partial access: the time
// column decoded, the value column kept encoded until a ValueRange or
// FilterValues call needs (some of) it.
type ChunkHandle struct {
	Meta ChunkMeta

	times  []int64
	vals   []int64 // full value column, when cached or fully decoded
	vcol   []byte  // encoded value column, when vals == nil
	packer codec.Packer
	bsize  int
}

// OpenChunk opens one integer chunk for partial access. A chunk-cache hit
// returns the decoded columns directly; a miss reads and decodes only the
// time column, leaving the value column encoded. OpenChunk never populates
// the cache — partial reads would poison it with incomplete columns.
func (r *Reader) OpenChunk(series string, ci int) (*ChunkHandle, error) {
	m, err := r.chunkMeta(series, ci)
	if err != nil {
		return nil, err
	}
	if !holds[int64](m.Kind) {
		return nil, kindError(series, m)
	}
	h := &ChunkHandle{Meta: m, packer: r.packerFor(m), bsize: r.opt.BlockSize}
	if times, vals, ok := chunkcache.Get[int64](r.cache, r.cacheID, series, ci); ok {
		h.times, h.vals = times, vals
		return h, nil
	}
	body, err := r.readChunkBody(m)
	if err != nil {
		return nil, err
	}
	_, cols, err := parseChunkHeader(body, m)
	if err != nil {
		return nil, err
	}
	tcol, rest, err := splitColumn(cols, m.Count, "time")
	if err != nil {
		return nil, err
	}
	if h.vcol, _, err = splitColumn(rest, m.Count, "value"); err != nil {
		return nil, err
	}
	if h.times, err = ts2diff.New(h.packer, r.opt.BlockSize).Decode(tcol); err != nil {
		return nil, fmt.Errorf("%w: time column: %v", ErrCorrupt, err)
	}
	return h, nil
}

// Times is the chunk's full time column, read-only.
func (h *ChunkHandle) Times() []int64 { return h.times }

// decodeAll decodes and memoizes the full value column.
func (h *ChunkHandle) decodeAll() ([]int64, error) {
	if h.vals == nil {
		vals, err := codec.NewBlockwise(h.packer, h.bsize).Decode(h.vcol)
		if err != nil {
			return nil, fmt.Errorf("%w: value column: %v", ErrCorrupt, err)
		}
		h.vals = vals
	}
	return h.vals, nil
}

// openBlocks validates the value column's count header and returns the
// packed block stream. The caller walks it with the core partial kernels.
func (h *ChunkHandle) openBlocks() ([]byte, error) {
	total, blocks, err := codec.ReadUvarint(h.vcol)
	if err != nil || total != uint64(len(h.times)) {
		return nil, fmt.Errorf("%w: value column count", ErrCorrupt)
	}
	return blocks, nil
}

// ValueRange returns the chunk's values at positions [lo, hi) (clamped),
// read-only. When the column is BOS-packed and the range is a strict
// sub-range, the blocks before lo are skipped by header arithmetic, the
// blocks overlapping the range are decoded whole, and the blocks after hi
// are never touched; the second result reports whether that partial path ran
// (false means the full column was decoded or cached).
func (h *ChunkHandle) ValueRange(lo, hi int) ([]int64, bool, error) {
	n := len(h.times)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	if h.vals != nil {
		return h.vals[lo:hi], false, nil
	}
	if _, ok := h.packer.(*core.Packer); !ok || (lo == 0 && hi == n) {
		vals, err := h.decodeAll()
		if err != nil {
			return nil, false, err
		}
		return vals[lo:hi], false, nil
	}
	blocks, err := h.openBlocks()
	if err != nil {
		return nil, false, err
	}
	vals := make([]int64, 0, hi-lo) // the overlapping blocks, decoded whole
	first := 0                      // chunk position of vals[0]
	for seen := 0; seen < hi && len(blocks) > 0; {
		bn, rest, err := core.SkipBlock(blocks)
		if err != nil {
			return nil, false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		if seen+bn <= lo {
			first = seen + bn
		} else if vals, _, err = h.packer.Unpack(blocks, vals); err != nil {
			return nil, false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		seen += bn
		blocks = rest
	}
	if first+len(vals) < hi {
		return nil, false, fmt.Errorf("%w: value column holds %d of [%d,%d)", ErrCorrupt, first+len(vals), lo, hi)
	}
	return vals[lo-first : hi-first], true, nil
}

// FilterValues calls emit(i, v), in position order, for every value v of the
// chunk with minV <= v <= maxV, i being the position within the chunk. For a
// BOS-packed column the per-class value bands decide which planes are
// decoded at all; the first result reports whether any plane (or whole
// block) was skipped that way.
func (h *ChunkHandle) FilterValues(minV, maxV int64, emit func(i int, v int64)) (bool, error) {
	if _, ok := h.packer.(*core.Packer); !ok || h.vals != nil {
		vals, err := h.decodeAll()
		if err != nil {
			return false, err
		}
		for i, v := range vals {
			if v >= minV && v <= maxV {
				emit(i, v)
			}
		}
		return false, nil
	}
	blocks, err := h.openBlocks()
	if err != nil {
		return false, err
	}
	skipped := false
	for seen := 0; seen < len(h.times) && len(blocks) > 0; {
		start := seen
		bn, sk, rest, err := core.FilterBlock(blocks, minV, maxV, func(i int, v int64) {
			emit(start+i, v)
		})
		if err != nil {
			return false, fmt.Errorf("%w: value block: %v", ErrCorrupt, err)
		}
		skipped = skipped || sk
		seen += bn
		blocks = rest
	}
	return skipped, nil
}
