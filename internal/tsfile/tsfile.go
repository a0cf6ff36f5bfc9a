// Package tsfile implements a miniature IoT-native time-series file format
// in the spirit of Apache TsFile (Zhao et al., VLDB 2024), the system the
// paper deploys BOS into (Section VII). A file holds many series; each
// Append call becomes one chunk with a timestamp column (delta + packer) and
// a value column (packer), plus per-chunk statistics. A footer index maps
// series to chunks so queries prune by time range and value range before
// decompressing anything.
//
// Layout:
//
//	"TSF2"
//	chunk*           each: varint body length, then body (see chunk.go)
//	index            per-series chunk directory with statistics
//	varint indexLen (fixed-width u32) | "TSF2"
//
// Each chunk records the name of the packer that encoded it in the footer
// (empty = the file's default packer), so one file can mix packing layouts:
// background compaction repacks each series into its cheapest candidate
// without forcing a single operator on the whole file.
//
// The format is self-contained; it exists so the repository can exercise BOS
// in the role the paper ships it in — the storage operator of a columnar
// time-series file — including the Figure 11 storage/query trade-off on real
// file IO.
package tsfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bos/internal/codec"
	"bos/internal/core"
	"bos/internal/floatconv"
	"bos/internal/packers"
	"bos/internal/ts2diff"
)

var (
	magic = []byte("TSF2")

	// ErrCorrupt reports an unreadable file.
	ErrCorrupt = errors.New("tsfile: corrupt file")
	// ErrNoSeries reports a query for an unknown series.
	ErrNoSeries = errors.New("tsfile: no such series")
	// ErrUnsorted reports timestamps out of order within an Append.
	ErrUnsorted = errors.New("tsfile: timestamps must be strictly increasing")
)

// Point is one (timestamp, integer value) sample.
type Point = Sample[int64]

// ChunkMeta describes one chunk in the footer index.
type ChunkMeta struct {
	Offset       int64 // file offset of the chunk length prefix
	Count        int
	MinT, MaxT   int64
	MinV, MaxV   int64 // scaled integers for float chunks; full-range for raw
	EncodedBytes int
	Kind         byte   // kindInt, kindScaled or kindRaw
	Precision    int    // decimal precision for kindScaled chunks
	Packer       string // packer name override; "" = the file's default packer

	// Sum is the wrapping int64 sum of the chunk's values (scaled integers
	// for kindScaled chunks), valid only when HasStats is set. HasStats is
	// false for raw float chunks, whose bit patterns have no orderable sum,
	// and for every chunk of a file written before the v2 footer — readers
	// of such chunks fall back to full decode.
	Sum      int64
	HasStats bool
}

// Options configures a Writer.
type Options struct {
	// Packer packs both columns; nil means BOS-B, the operator the paper
	// ships in TsFile.
	Packer codec.Packer
	// BlockSize is the packing block size inside a chunk (default 1024).
	BlockSize int
}

func (o Options) packer() codec.Packer {
	if o.Packer == nil {
		return core.NewPacker(core.SeparationBitWidth)
	}
	return o.Packer
}

// Writer builds a file sequentially on any io.Writer.
type Writer struct {
	w      io.Writer
	opt    Options
	off    int64
	index  map[string][]ChunkMeta
	order  []string
	closed bool
	err    error
}

// NewWriter returns a Writer that emits the file onto w.
func NewWriter(w io.Writer, opt Options) *Writer {
	tw := &Writer{w: w, opt: opt, index: map[string][]ChunkMeta{}}
	tw.err = tw.write(magic)
	return tw
}

func (w *Writer) write(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	w.err = err
	return err
}

// Append adds one chunk of samples to a series using the file's default
// packer. Timestamps must be strictly increasing within the chunk; chunks of
// one series should be appended in time order for queries to return sorted
// results.
func (w *Writer) Append(series string, points []Point) error {
	return w.AppendPacked(series, points, "")
}

// AppendPacked is Append with a per-chunk packer override: the chunk is
// encoded with the named packer (resolved through the shared registry) and
// the name is recorded in the footer, so readers decode it with the right
// operator regardless of the file's default. An empty name means the default
// packer. This is what lets one file mix packing layouts — background
// compaction repacks each series into its cheapest candidate.
func (w *Writer) AppendPacked(series string, points []Point, packerName string) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tsfile: writer closed")
	}
	c, err := EncodeSeries(w.opt, points, packerName)
	if err != nil {
		return err
	}
	return w.AppendEncoded(series, c)
}

// EncodedChunk is one chunk encoded off-writer: the body bytes plus the
// footer metadata, with Meta.Offset left unset until AppendEncoded assigns
// the chunk its position in the file. Encoding is the expensive part of a
// flush or compaction merge; splitting it from the sequential write lets
// callers fan series out across workers and still produce byte-identical
// files by appending the results in deterministic order.
type EncodedChunk struct {
	Meta ChunkMeta
	Body []byte
}

// EncodeSeries encodes one integer chunk without a Writer. It performs the
// same validation, statistics and packing as AppendPacked and returns a
// chunk AppendEncoded can install; empty input returns a zero chunk that
// AppendEncoded skips. EncodeSeries is safe for concurrent use: the packer
// is resolved fresh per call (packer instances must not be shared across
// goroutines), so parallel encoders never share planning state.
func EncodeSeries(opt Options, points []Point, packerName string) (EncodedChunk, error) {
	if len(points) == 0 {
		return EncodedChunk{}, nil
	}
	p, err := encodePacker(opt, packerName)
	if err != nil {
		return EncodedChunk{}, err
	}
	meta := ChunkMeta{
		Count: len(points),
		MinT:  points[0].T,
		MaxT:  points[len(points)-1].T,
		MinV:  points[0].V,
		MaxV:  points[0].V,
	}
	times := make([]int64, len(points))
	vals := make([]int64, len(points))
	for i, p := range points {
		if i > 0 && p.T <= points[i-1].T {
			return EncodedChunk{}, fmt.Errorf("%w: t[%d]=%d after %d", ErrUnsorted, i, p.T, points[i-1].T)
		}
		times[i] = p.T
		vals[i] = p.V
		if p.V < meta.MinV {
			meta.MinV = p.V
		}
		if p.V > meta.MaxV {
			meta.MaxV = p.V
		}
		meta.Sum += p.V // wrapping, like Aggregate
	}
	meta.Kind = kindInt
	meta.HasStats = true
	meta.Packer = packerName
	body := encodeChunk(p, opt.BlockSize, times, vals)
	meta.EncodedBytes = len(body)
	return EncodedChunk{Meta: meta, Body: body}, nil
}

// AppendEncoded installs a chunk produced by EncodeSeries (or
// EncodeFloatSeries), assigning its file offset. Chunks must be appended in
// the same order a serial Append sequence would have used for the file bytes
// to be identical. A zero chunk (Count 0) is a no-op.
func (w *Writer) AppendEncoded(series string, c EncodedChunk) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tsfile: writer closed")
	}
	if c.Meta.Count == 0 {
		return nil
	}
	c.Meta.Offset = w.off
	return w.writeChunk(series, c.Meta, c.Body)
}

// chunkPacker resolves a per-chunk packer override ("" = file default).
func (w *Writer) chunkPacker(name string) (codec.Packer, error) {
	if name == "" {
		return w.opt.packer(), nil
	}
	p, err := packers.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("tsfile: %w", err)
	}
	return p, nil
}

// encodePacker resolves the packer for an off-writer encode. Unlike
// chunkPacker it returns a fresh instance even for the file default
// (re-resolving configured packers through the registry by name), because
// registry packers carry planning state and must not be shared between the
// concurrent encoders a parallel flush runs. A custom Options.Packer not in
// the registry is returned as-is; such implementations must tolerate
// concurrent Pack calls if the caller encodes in parallel.
func encodePacker(opt Options, name string) (codec.Packer, error) {
	if name != "" {
		p, err := packers.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("tsfile: %w", err)
		}
		return p, nil
	}
	if opt.Packer == nil {
		return core.NewPacker(core.SeparationBitWidth), nil
	}
	if p, err := packers.ByName(opt.Packer.Name()); err == nil {
		return p, nil
	}
	return opt.Packer, nil
}

// writeChunk frames one encoded chunk body and records its metadata.
func (w *Writer) writeChunk(series string, meta ChunkMeta, body []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	if err := w.write(hdr[:n]); err != nil {
		return err
	}
	if err := w.write(body); err != nil {
		return err
	}
	if _, seen := w.index[series]; !seen {
		w.order = append(w.order, series)
	}
	w.index[series] = append(w.index[series], meta)
	return nil
}

// Close writes the footer index. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	idx := encodeIndex(w.order, w.index)
	if err := w.write(idx); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(idx)))
	copy(tail[4:], magic)
	return w.write(tail[:])
}

// encodeChunk packs an integer chunk: count, kind byte, then the columns.
func encodeChunk(p codec.Packer, blockSize int, times, vals []int64) []byte {
	body := codec.AppendUvarint(nil, uint64(len(vals)))
	body = append(body, kindInt)
	return appendColumns(p, blockSize, body, times, vals)
}

// appendColumns packs the two columns — timestamps delta-coded then packed,
// values packed directly — each framed by a byte-length varint so the
// decoder can split them.
func appendColumns(p codec.Packer, blockSize int, body []byte, times, vals []int64) []byte {
	tc := ts2diff.New(p, blockSize)
	tcol := tc.Encode(nil, times)
	body = codec.AppendUvarint(body, uint64(len(tcol)))
	body = append(body, tcol...)
	vc := codec.NewBlockwise(p, blockSize)
	vcol := vc.Encode(nil, vals)
	body = codec.AppendUvarint(body, uint64(len(vcol)))
	body = append(body, vcol...)
	return body
}

// parseChunkHeader reads the header of a chunk body — point count, kind
// byte and, for scaled chunks, the decimal precision — and returns the
// precision and the columns that follow. The count and kind must equal the
// chunk's footer entry: a body that disagrees with its footer is corrupt.
func parseChunkHeader(body []byte, m ChunkMeta) (precision int, cols []byte, err error) {
	n, rest, err := codec.ReadUvarint(body)
	if err != nil || n != uint64(m.Count) || n > codec.MaxBlockLen*64 {
		return 0, nil, fmt.Errorf("%w: chunk count does not match the footer's %d", ErrCorrupt, m.Count)
	}
	if len(rest) == 0 || rest[0] != m.Kind {
		return 0, nil, fmt.Errorf("%w: chunk kind does not match the footer's %d", ErrCorrupt, m.Kind)
	}
	rest = rest[1:]
	if m.Kind == kindScaled {
		if len(rest) == 0 || rest[0] > floatconv.MaxPrecision {
			return 0, nil, fmt.Errorf("%w: chunk precision", ErrCorrupt)
		}
		precision, rest = int(rest[0]), rest[1:]
	}
	return precision, rest, nil
}

// splitColumn cuts one framed column off the front of rest and checks that
// it declares n values before anything decodes it, so a corrupt column count
// cannot size an allocation.
func splitColumn(rest []byte, n int, name string) (col, tail []byte, err error) {
	clen, r, err := codec.ReadUvarint(rest)
	if err != nil || clen > uint64(len(r)) {
		return nil, nil, fmt.Errorf("%w: %s column frame", ErrCorrupt, name)
	}
	col = r[:clen]
	if count, _, err := codec.ReadUvarint(col); err != nil || count != uint64(n) {
		return nil, nil, fmt.Errorf("%w: %s column count does not match the chunk's %d", ErrCorrupt, name, n)
	}
	return col, r[clen:], nil
}

// decodeColumns inverts appendColumns for a chunk of n points.
func decodeColumns(p codec.Packer, blockSize int, rest []byte, n int) (times, vals []int64, err error) {
	tcol, rest, err := splitColumn(rest, n, "time")
	if err != nil {
		return nil, nil, err
	}
	vcol, _, err := splitColumn(rest, n, "value")
	if err != nil {
		return nil, nil, err
	}
	// Both codecs return exactly the count the column declares, or an
	// error.
	if times, err = ts2diff.New(p, blockSize).Decode(tcol); err != nil {
		return nil, nil, fmt.Errorf("%w: time column: %v", ErrCorrupt, err)
	}
	if vals, err = codec.NewBlockwise(p, blockSize).Decode(vcol); err != nil {
		return nil, nil, fmt.Errorf("%w: value column: %v", ErrCorrupt, err)
	}
	return times, vals, nil
}
