package tsfile

import (
	"bytes"
	"fmt"
	"math"

	"bos/internal/bitpack"
	"bos/internal/floatconv"
)

// The chunk cache holds a chunk in one of two forms. A decoded entry is the
// chunk's whole time column and its value column as V, which every hit
// reads in place. When the cache runs out of room it packs its least
// recently used decoded entries (chunkcache.Shrinker) into a packed entry:
// per block of packedBlockLen points, the block's first timestamp, the
// deltas after it and the block's stored integers, both bit-packed with
// plain frame-of-reference packing (bitpack.Packer), the fast-decode end of
// the size/speed trade BOS sits on. A packed entry takes about a tenth of a
// decoded one, and a hit on it decodes only the blocks its range needs,
// into the reader's pooled buffers (ChunkHandle).

// packedBlockLen is the number of points in each block of a packed entry.
const packedBlockLen = 1024

// packedBlockBytes is what a packed entry holds per block besides its
// packed bytes: the block's first timestamp and two offsets.
const packedBlockBytes = 24

// decoded is a chunk cache entry in its large form, shared read-only by
// every hit. kind and precision are the chunk's, so that Shrink can store
// a float column as the chunk does.
type decoded[V int64 | float64] struct {
	times     []int64
	vals      []V
	kind      byte
	precision int
}

// size is the bytes the columns hold: 16 a point.
func (d *decoded[V]) size() int64 { return int64(len(d.times)+len(d.vals)) * 8 }

// Shrink packs the columns into a new packed entry and leaves d as it is,
// since readers may still hold its slices (chunkcache.Shrinker).
func (d *decoded[V]) Shrink() (any, int64) {
	kind, stored := d.kind, []int64(nil)
	switch vs := any(d.vals).(type) {
	case []int64:
		stored = vs
	case []float64:
		if kind == kindScaled {
			// Exact by construction: the values are the chunk's scaled
			// integers divided by 10^precision.
			var err error
			if stored, err = floatconv.ToScaled(vs, d.precision); err != nil {
				kind, stored = kindRaw, nil
			}
		}
		if stored == nil {
			stored = make([]int64, len(vs))
			for i, v := range vs {
				stored[i] = int64(math.Float64bits(v))
			}
		}
	}
	p := packColumns(d.times, stored, kind, d.precision)
	return p, p.size()
}

// packedChunk is a chunk cache entry in its small form. kind says how the
// stored integers read back as values: as they are, scaled by 10^precision,
// or as raw float bits.
type packedChunk struct {
	kind      byte
	precision int
	n         int
	blocks    []packedBlock
	data      []byte
}

// packedBlock locates one block of a packed entry. The block's first
// timestamp is kept out of its packed deltas, as the point stream keeps
// its first delta, so a regular series packs its times at width 0.
type packedBlock struct {
	first int64 // the block's first timestamp
	t, v  int   // offsets in data of its packed deltas and packed values
}

// packColumns packs a chunk's time column and stored integers.
func packColumns(times, stored []int64, kind byte, precision int) *packedChunk {
	n := len(times)
	p := &packedChunk{kind: kind, precision: precision, n: n,
		blocks: make([]packedBlock, 0, (n+packedBlockLen-1)/packedBlockLen)}
	var data []byte
	deltas := make([]int64, 0, packedBlockLen)
	for lo := 0; lo < n; lo += packedBlockLen {
		hi := min(lo+packedBlockLen, n)
		deltas = deltas[:0]
		for i := lo + 1; i < hi; i++ {
			deltas = append(deltas, times[i]-times[i-1]) // wraps, as the sum undoes
		}
		b := packedBlock{first: times[lo], t: len(data)}
		data = bitpack.Packer{}.Pack(data, deltas)
		b.v = len(data)
		data = bitpack.Packer{}.Pack(data, stored[lo:hi])
		p.blocks = append(p.blocks, b)
	}
	p.data = bytes.Clone(data)
	return p
}

// size is the bytes the entry holds: its packed bytes and its block index.
func (p *packedChunk) size() int64 {
	return int64(len(p.data)) + int64(len(p.blocks))*packedBlockBytes
}

// blockLen is the number of points block b holds.
func (p *packedChunk) blockLen(b int) int {
	return min(p.n-b*packedBlockLen, packedBlockLen)
}

// appendTimes appends block b's timestamps to dst.
func (p *packedChunk) appendTimes(dst []int64, b int) ([]int64, error) {
	base := len(dst)
	dst, _, err := bitpack.Packer{}.Unpack(p.data[p.blocks[b].t:], append(dst, p.blocks[b].first))
	if err != nil || len(dst)-base != p.blockLen(b) {
		return dst[:base], fmt.Errorf("%w: cached time block %d does not unpack", ErrCorrupt, b)
	}
	for i := base + 1; i < len(dst); i++ {
		dst[i] += dst[i-1]
	}
	return dst, nil
}

// appendValues appends block b's stored integers to dst.
func (p *packedChunk) appendValues(dst []int64, b int) ([]int64, error) {
	base := len(dst)
	dst, _, err := bitpack.Packer{}.Unpack(p.data[p.blocks[b].v:], dst)
	if err != nil || len(dst)-base != p.blockLen(b) {
		return dst[:base], fmt.Errorf("%w: cached value block %d does not unpack", ErrCorrupt, b)
	}
	return dst, nil
}

// unpack decodes the whole entry into new columns: the time column and the
// stored integers.
func (p *packedChunk) unpack() ([]int64, []int64, error) {
	times, vals := make([]int64, 0, p.n), make([]int64, 0, p.n)
	var err error
	for b := range p.blocks {
		if times, err = p.appendTimes(times, b); err != nil {
			return nil, nil, err
		}
		if vals, err = p.appendValues(vals, b); err != nil {
			return nil, nil, err
		}
	}
	return times, vals, nil
}
