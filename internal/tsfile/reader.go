package tsfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"bos/internal/chunkcache"
	"bos/internal/codec"
	"bos/internal/packers"
)

// indexV2Tag marks a versioned footer. The legacy footer began directly with
// the series count, which parseIndex bounds by the index byte length; the tag
// is far above any possible length (the index length is a u32), so a legacy
// reader rejects a v2 file cleanly as corrupt while a v2 reader tells the two
// apart from the first varint.
const indexV2Tag = uint64(1) << 40

// indexVersion is the current footer version written by encodeIndex. A v3
// footer records the registry name of the file's default packer; a v2 footer
// does not, and its unnamed chunks decode with Options.Packer.
const indexVersion = 3

// Per-chunk footer flag bits (versioned footers only).
const chunkFlagStats = 1 << 0 // chunk carries a value Sum statistic

// encodeIndex serializes the footer: version tag, the default packer's
// registry name ("" for a packer outside the registry), series count, then
// per series its name, chunk count and chunk metadata (offsets and
// statistics delta-free, all zigzag varints; the per-chunk packer-name
// override, then a flags byte and the optional value-sum statistic last).
func encodeIndex(defPacker string, order []string, index map[string][]ChunkMeta) []byte {
	out := codec.AppendUvarint(nil, indexV2Tag)
	out = codec.AppendUvarint(out, indexVersion)
	out = codec.AppendUvarint(out, uint64(len(defPacker)))
	out = append(out, defPacker...)
	out = codec.AppendUvarint(out, uint64(len(order)))
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
			if c.HasStats {
				out = append(out, chunkFlagStats)
				out = appendZig(out, c.Sum)
			} else {
				out = append(out, 0)
			}
		}
	}
	return out
}

func appendZig(dst []byte, v int64) []byte {
	return codec.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

func readZig(src []byte) (int64, []byte, error) {
	u, rest, err := codec.ReadUvarint(src)
	return int64(u>>1) ^ -int64(u&1), rest, err
}

// Reader opens a file from any io.ReaderAt.
type Reader struct {
	r       io.ReaderAt
	def     codec.Packer            // the file's default packer, resolved once
	defName string                  // its registry name, when the footer records one
	named   map[string]codec.Packer // per-chunk packer overrides, by footer name
	index   map[string][]ChunkMeta
	order   []string

	cache   *chunkcache.Cache // nil: decode every read
	cacheID uint64            // this file's identity inside the cache
}

// SetCache attaches a decoded-chunk cache; a nil cache decodes every read.
// fileID must be unique among all files sharing the cache for the file's
// lifetime (and never reused for different content — sequence numbers are
// NOT safe, compaction recycles them). Slices the cache holds are shared
// and never mutated. Call before the Reader is shared between goroutines.
func (r *Reader) SetCache(c *chunkcache.Cache, fileID uint64) {
	r.cache = c
	r.cacheID = fileID
}

// OpenReader parses the footer index of a file of the given size. Chunks
// without a per-chunk packer in the footer decode with the default packer
// the footer names, so a file reads back whatever opt says. Only a file
// whose footer names none (a v2 footer, or one written with a packer outside
// internal/packers) decodes them with opt.Packer, which must then be the
// packer the file was written with.
func OpenReader(r io.ReaderAt, size int64, opt Options) (*Reader, error) {
	// Minimum file: header magic, a one-byte empty index, the 8-byte tail.
	if size < int64(len(magic))+1+8 {
		return nil, fmt.Errorf("%w: too small", ErrCorrupt)
	}
	head := make([]byte, len(magic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if string(head) != string(magic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	tail := make([]byte, 8)
	if _, err := r.ReadAt(tail, size-8); err != nil {
		return nil, fmt.Errorf("%w: tail: %v", ErrCorrupt, err)
	}
	if string(tail[4:]) != string(magic) {
		return nil, fmt.Errorf("%w: bad tail magic", ErrCorrupt)
	}
	idxLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if idxLen <= 0 || idxLen > size-8-int64(len(magic)) {
		return nil, fmt.Errorf("%w: index length %d", ErrCorrupt, idxLen)
	}
	idx := make([]byte, idxLen)
	if _, err := r.ReadAt(idx, size-8-idxLen); err != nil {
		return nil, fmt.Errorf("%w: index: %v", ErrCorrupt, err)
	}
	tr := &Reader{
		r:     r,
		def:   opt.packer(),
		named: map[string]codec.Packer{},
		index: map[string][]ChunkMeta{},
	}
	if err := tr.parseIndex(idx, size-8-idxLen); err != nil {
		return nil, err
	}
	return tr, nil
}

// packerFor returns the packer that decodes one chunk: its footer override
// when present, the file default otherwise. Overrides are resolved eagerly in
// parseIndex, so the map is read-only (and safe to share) after open.
func (r *Reader) packerFor(m ChunkMeta) codec.Packer {
	if m.Packer == "" {
		return r.def
	}
	return r.named[m.Packer]
}

// parseIndex decodes the footer. dataEnd is where the chunk area ends (the
// index starts), so every chunk, length prefix and body, must lie in
// [len(magic), dataEnd).
func (r *Reader) parseIndex(idx []byte, dataEnd int64) error {
	nSeries, rest, err := codec.ReadUvarint(idx)
	if err != nil {
		return fmt.Errorf("%w: series count", ErrCorrupt)
	}
	// Legacy footers (pre-v2) start directly with the series count; v2
	// footers start with the tag. Legacy chunks simply have no stats.
	v2 := nSeries == indexV2Tag
	if v2 {
		var version uint64
		if version, rest, err = codec.ReadUvarint(rest); err != nil || version < 2 || version > indexVersion {
			return fmt.Errorf("%w: footer version", ErrCorrupt)
		}
		if version >= 3 {
			nameLen, r2, err := codec.ReadUvarint(rest)
			if err != nil || nameLen > uint64(len(r2)) {
				return fmt.Errorf("%w: default packer name", ErrCorrupt)
			}
			r.defName, rest = string(r2[:nameLen]), r2[nameLen:]
			if r.defName != "" {
				if r.def, err = packers.ByName(r.defName); err != nil {
					return fmt.Errorf("%w: default packer: %v", ErrCorrupt, err)
				}
			}
		}
		if nSeries, rest, err = codec.ReadUvarint(rest); err != nil {
			return fmt.Errorf("%w: series count", ErrCorrupt)
		}
	}
	if nSeries > uint64(len(idx)) {
		return fmt.Errorf("%w: series count", ErrCorrupt)
	}
	for s := uint64(0); s < nSeries; s++ {
		nameLen, r2, err := codec.ReadUvarint(rest)
		if err != nil || nameLen > uint64(len(r2)) {
			return fmt.Errorf("%w: series name", ErrCorrupt)
		}
		name := string(r2[:nameLen])
		rest = r2[nameLen:]
		nChunks, r3, err := codec.ReadUvarint(rest)
		if err != nil || nChunks > uint64(len(r3)) {
			return fmt.Errorf("%w: chunk count", ErrCorrupt)
		}
		rest = r3
		chunks := make([]ChunkMeta, 0, nChunks)
		for c := uint64(0); c < nChunks; c++ {
			var m ChunkMeta
			var u uint64
			if u, rest, err = codec.ReadUvarint(rest); err != nil {
				return fmt.Errorf("%w: chunk offset", ErrCorrupt)
			}
			m.Offset = int64(u)
			if u, rest, err = codec.ReadUvarint(rest); err != nil {
				return fmt.Errorf("%w: chunk size", ErrCorrupt)
			}
			m.Count = int(u)
			if u, rest, err = codec.ReadUvarint(rest); err != nil {
				return fmt.Errorf("%w: chunk bytes", ErrCorrupt)
			}
			m.EncodedBytes = int(u)
			if m.MinT, rest, err = readZig(rest); err != nil {
				return fmt.Errorf("%w: chunk minT", ErrCorrupt)
			}
			if m.MaxT, rest, err = readZig(rest); err != nil {
				return fmt.Errorf("%w: chunk maxT", ErrCorrupt)
			}
			if m.MinV, rest, err = readZig(rest); err != nil {
				return fmt.Errorf("%w: chunk minV", ErrCorrupt)
			}
			if m.MaxV, rest, err = readZig(rest); err != nil {
				return fmt.Errorf("%w: chunk maxV", ErrCorrupt)
			}
			if len(rest) < 2 {
				return fmt.Errorf("%w: chunk kind", ErrCorrupt)
			}
			m.Kind, m.Precision = rest[0], int(rest[1])
			rest = rest[2:]
			if m.Kind > kindRaw {
				return fmt.Errorf("%w: chunk kind %d", ErrCorrupt, m.Kind)
			}
			pnLen, r4, err := codec.ReadUvarint(rest)
			if err != nil || pnLen > uint64(len(r4)) {
				return fmt.Errorf("%w: chunk packer name", ErrCorrupt)
			}
			m.Packer = string(r4[:pnLen])
			rest = r4[pnLen:]
			if v2 {
				if len(rest) < 1 {
					return fmt.Errorf("%w: chunk flags", ErrCorrupt)
				}
				flags := rest[0]
				rest = rest[1:]
				if flags&^chunkFlagStats != 0 {
					return fmt.Errorf("%w: chunk flags %#x", ErrCorrupt, flags)
				}
				if flags&chunkFlagStats != 0 {
					m.HasStats = true
					if m.Sum, rest, err = readZig(rest); err != nil {
						return fmt.Errorf("%w: chunk sum", ErrCorrupt)
					}
				}
			}
			if m.Packer != "" {
				if _, ok := r.named[m.Packer]; !ok {
					p, err := packers.ByName(m.Packer)
					if err != nil {
						return fmt.Errorf("%w: chunk packer: %v", ErrCorrupt, err)
					}
					r.named[m.Packer] = p
				}
			}
			body := uint64(m.EncodedBytes)
			if m.Offset < int64(len(magic)) || m.Offset >= dataEnd || body > uint64(dataEnd) || uvarintLen(body)+body > uint64(dataEnd-m.Offset) {
				return fmt.Errorf("%w: chunk at %d of %d bytes", ErrCorrupt, m.Offset, m.EncodedBytes)
			}
			chunks = append(chunks, m)
		}
		r.index[name] = chunks
		r.order = append(r.order, name)
	}
	return nil
}

// DefaultPacker returns the registry name of the packer the file's unnamed
// chunks were written with, or "" when the footer names none.
func (r *Reader) DefaultPacker() string { return r.defName }

// Series lists the series names in file order.
func (r *Reader) Series() []string {
	return append([]string(nil), r.order...)
}

// ValueKind reports whether the file holds series and, if so, whether any
// of its chunks stores float values. Unlike Chunks it copies nothing.
func (r *Reader) ValueKind(series string) (found, float bool) {
	chunks := r.index[series]
	for _, c := range chunks {
		if c.Kind != kindInt {
			return true, true
		}
	}
	return len(chunks) > 0, false
}

// WithoutCache returns a view of r that neither consults nor fills r's
// chunk cache: every chunk read decodes into pooled buffers. A one-pass
// reader, such as a compaction merging files it is about to replace, uses
// it so it does not evict hot entries.
func (r *Reader) WithoutCache() *Reader {
	v := *r
	v.cache = nil
	return &v
}

// Chunks exposes the footer metadata of one series.
func (r *Reader) Chunks(series string) ([]ChunkMeta, error) {
	chunks, ok := r.index[series]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	return append([]ChunkMeta(nil), chunks...), nil
}

// uvarintLen is the length of v's canonical uvarint encoding, the form the
// writer frames every chunk body with.
func uvarintLen(v uint64) uint64 {
	n := uint64(1)
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// readBufs is one chunk read's scratch: the chunk body as the file holds
// it, the decoded time and value columns of a read that keeps none, and the
// float values a float chunk's range converts to. No decoded column aliases
// body, so a read that keeps its columns returns the buffers as soon as
// decoding ends.
type readBufs struct {
	body   []byte
	times  []int64
	vals   []int64
	floats []float64
}

// readPool recycles readBufs between chunk reads, so that a read which keeps
// no column allocates none.
var readPool = sync.Pool{New: func() any { return new(readBufs) }}

// readChunkBody loads one chunk's raw body, length prefix and body in one
// read, into b.body. The prefix must equal the footer's EncodedBytes, which
// open has already bounded by the file, so a corrupt prefix cannot size the
// read.
func (r *Reader) readChunkBody(m ChunkMeta, b *readBufs) ([]byte, error) {
	n := int(uvarintLen(uint64(m.EncodedBytes)))
	b.body = slices.Grow(b.body[:0], n+m.EncodedBytes)[:n+m.EncodedBytes]
	if _, err := r.r.ReadAt(b.body, m.Offset); err != nil {
		return nil, fmt.Errorf("%w: chunk body: %v", ErrCorrupt, err)
	}
	if bodyLen, used := binary.Uvarint(b.body); used != n || bodyLen != uint64(m.EncodedBytes) {
		return nil, fmt.Errorf("%w: chunk length prefix does not match the footer", ErrCorrupt)
	}
	return b.body[n:], nil
}

// holds reports whether a chunk of the given footer kind stores values of
// kind V: integer chunks hold int64, scaled and raw chunks float64.
func holds[V int64 | float64](kind byte) bool {
	_, isInt := any(V(0)).(int64)
	return isInt == (kind == kindInt)
}

// kindError reports a chunk read through the other kind's API.
func kindError(series string, m ChunkMeta) error {
	if m.Kind == kindInt {
		return fmt.Errorf("%w: %q holds integers; use Query", ErrKindMismatch, series)
	}
	return fmt.Errorf("%w: %q holds floats; use QueryFloats", ErrKindMismatch, series)
}

// readChunk returns the samples of chunk ci (footer entry m) of series with
// minT <= T <= maxT, as a time and a value column of kind V, read-only. It
// is the one cache rule of every chunk read:
//
//   - a hit on a decoded entry returns the cached columns;
//   - a hit on a packed entry opens it into h's pooled buffers and decodes
//     only the blocks the range needs (readRange);
//   - a miss the cache admits (Admits: the chunk fits, and the cache has
//     room for it now, packing its least recently used entries if it must,
//     or the read covers the whole chunk) decodes the whole chunk into new
//     columns and caches them;
//   - any other miss, and every read through a nil cache, opens the chunk
//     into h's pooled buffers and decodes only the value blocks that overlap
//     the range (readRange).
//
// Columns read into h are h's until h.Release. With h nil the caller wants
// columns of its own, so a packed hit or an unkept miss decodes the whole
// chunk into new columns instead.
//
// past reports whether the chunk holds a timestamp after maxT.
func readChunk[V int64 | float64](r *Reader, series string, ci int, m ChunkMeta, minT, maxT int64, h *ChunkHandle) (times []int64, vals []V, past bool, err error) {
	if !holds[V](m.Kind) {
		return nil, nil, false, kindError(series, m)
	}
	key := r.cacheKey(series, ci)
	if v, ok := r.cache.Get(key); ok {
		switch c := v.(type) {
		case *decoded[V]:
			times, vals, past = inRange(c.times, c.vals, minT, maxT)
			return times, vals, past, nil
		case *packedChunk:
			if h == nil {
				times, stored, err := c.unpack()
				if err != nil {
					return nil, nil, false, err
				}
				times, vals, past = inRange(times, chunkValues[V](nil, c.kind, c.precision, stored), minT, maxT)
				return times, vals, past, nil
			}
			h.openPacked(m, c)
			return readRange[V](h, minT, maxT)
		}
	}
	// The cache would hold 16 bytes a point: an int64 time, a 64-bit value.
	whole := m.MinT >= minT && m.MaxT <= maxT
	if admitted := r.cache.Admits(int64(m.Count)*16, whole); admitted || h == nil {
		d, err := decodeChunk[V](r, m)
		if err != nil {
			return nil, nil, false, err
		}
		if admitted {
			r.cache.Put(key, d, d.size())
		}
		times, vals, past = inRange(d.times, d.vals, minT, maxT)
		return times, vals, past, nil
	}
	if err := r.open(h, m); err != nil {
		return nil, nil, false, err
	}
	return readRange[V](h, minT, maxT)
}

// span returns the positions [lo, hi) of a sorted time column whose
// timestamps lie in [minT, maxT]; hi < len(times) when one lies past maxT.
func span(times []int64, minT, maxT int64) (lo, hi int) {
	lo = sort.Search(len(times), func(i int) bool { return times[i] >= minT })
	return lo, max(lo, sort.Search(len(times), func(i int) bool { return times[i] > maxT }))
}

// inRange cuts whole columns to span's positions, and reports whether a
// timestamp lies past maxT.
func inRange[V int64 | float64](times []int64, vals []V, minT, maxT int64) ([]int64, []V, bool) {
	lo, hi := span(times, minT, maxT)
	return times[lo:hi], vals[lo:hi], hi < len(times)
}

// decodeChunk decodes one whole chunk of value kind V into a new decoded
// cache entry. The entry holds the post-conversion value column, so a float
// hit skips both the bit-unpacking and the conversion.
func decodeChunk[V int64 | float64](r *Reader, m ChunkMeta) (*decoded[V], error) {
	b := readPool.Get().(*readBufs)
	defer readPool.Put(b)
	body, err := r.readChunkBody(m, b)
	if err != nil {
		return nil, err
	}
	precision, cols, err := parseChunkHeader(body, m)
	if err != nil {
		return nil, err
	}
	// An integer column is handed out as it is; a float chunk's stored
	// integers are scratch that chunkValues converts into a new column.
	var ivals []int64
	if m.Kind != kindInt {
		ivals = b.vals[:0]
	}
	times, ivals, err := decodeColumns(r.packerFor(m), cols, m.Count, ivals)
	if err != nil {
		return nil, err
	}
	vals := chunkValues[V](nil, m.Kind, precision, ivals)
	if m.Kind != kindInt {
		b.vals = ivals[:0]
	}
	return &decoded[V]{times: times, vals: vals, kind: m.Kind, precision: precision}, nil
}

// readRange returns the samples of the chunk h has open with
// minT <= T <= maxT: Span finds their positions, Times and ValueRange read
// only the blocks those positions need, and a float chunk converts only
// those positions, into h's buffers too. On error h holds nothing.
func readRange[V int64 | float64](h *ChunkHandle, minT, maxT int64) ([]int64, []V, bool, error) {
	lo, hi, err := h.Span(minT, maxT)
	if err != nil {
		h.Release()
		return nil, nil, false, err
	}
	past := hi < h.Meta.Count
	if lo == hi {
		return nil, nil, past, nil // no value block needed
	}
	times, err := h.Times(lo, hi)
	if err != nil {
		h.Release()
		return nil, nil, false, err
	}
	ivals, _, err := h.ValueRange(lo, hi)
	if err != nil {
		h.Release()
		return nil, nil, false, err
	}
	if h.kind == kindInt {
		return times, any(ivals).([]V), past, nil
	}
	h.bufs.floats = chunkValues(h.bufs.floats[:0], h.kind, h.precision, ivals)
	return times, any(h.bufs.floats).([]V), past, nil
}

// scan returns the points of a series of value kind V with minT <= T <= maxT
// and a value not outside [minV, maxV] (so a NaN stays), in time order. It
// reads only the chunks that overlap the time range and that keep, the
// caller's footer-statistics prune, lets through.
func scan[V int64 | float64](r *Reader, series string, minT, maxT int64, minV, maxV V, keep func(ChunkMeta) bool) ([]Sample[V], error) {
	chunks, ok := r.index[series]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	var out []Sample[V]
	var h ChunkHandle
	defer h.Release()
	for ci, m := range chunks {
		if m.MaxT < minT || m.MinT > maxT || !keep(m) {
			continue // pruned without IO beyond the footer
		}
		times, vals, _, err := readChunk[V](r, series, ci, m, minT, maxT, &h)
		if err != nil {
			return nil, err
		}
		for i, t := range times {
			if v := vals[i]; !(v < minV || v > maxV) {
				out = append(out, Sample[V]{t, v})
			}
		}
		h.Release()
	}
	return out, nil
}

// Query returns the points of a series with minT <= T <= maxT and
// minV <= V <= maxV, in time order, decoding only chunks whose footer
// statistics overlap the predicate.
func (r *Reader) Query(series string, minT, maxT, minV, maxV int64) ([]Point, error) {
	return scan(r, series, minT, maxT, minV, maxV, func(m ChunkMeta) bool {
		return m.MaxV >= minV && m.MinV <= maxV
	})
}

// ReadAll returns every point of a series in time order.
func (r *Reader) ReadAll(series string) ([]Point, error) {
	return r.Query(series, math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64)
}
