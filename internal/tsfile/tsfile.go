// Package tsfile implements a miniature IoT-native time-series file format
// in the spirit of Apache TsFile (Zhao et al., VLDB 2024), the system the
// paper deploys BOS into (Section VII). A file holds many series; each
// EncodeSeries call makes one chunk with a timestamp column (delta + packer)
// and a value column (packer), plus per-chunk statistics. A footer index maps
// series to chunks so queries prune by time range and value range before
// decompressing anything.
//
// Layout:
//
//	"TSF2"
//	chunk*           each: varint body length, then body (see encodeChunk)
//	index            per-series chunk directory with statistics
//	varint indexLen (fixed-width u32) | "TSF2"
//
// Each chunk records the name of the packer that encoded it in the footer
// (empty = the file's default packer), so one file can mix packing layouts:
// background compaction repacks each series into its smallest candidate
// without forcing a single operator on the whole file. The footer records
// the default packer's name too, so a file reads back under any Options.
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
	// BlockSize is the number of values a writer packs per block inside a
	// chunk (default 1024). Readers ignore it: every packed block records
	// its own length.
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
	c, err := EncodeSeries(w.opt, points, "")
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

// EncodeSeries encodes one chunk of samples without a Writer; it is the only
// code that turns a series into a chunk. Integer samples are stored as they
// are. Float samples are scaled to integers when they are decimal (keeping
// all the packing machinery and statistics pruning) and stored as raw bits
// otherwise, losslessly either way. packerName picks a registry packer for
// this chunk and is recorded in the footer, so readers decode it with the
// right operator regardless of the file's default; "" means the default.
// Timestamps must be strictly increasing. Empty input returns a zero chunk
// that AppendEncoded skips. EncodeSeries is safe for concurrent use: the
// packer is resolved fresh per call (packer instances must not be shared
// across goroutines), so parallel encoders never share planning state.
func EncodeSeries[V int64 | float64](opt Options, points []Sample[V], packerName string) (EncodedChunk, error) {
	if len(points) == 0 {
		return EncodedChunk{}, nil
	}
	p, err := encodePacker(opt, packerName)
	if err != nil {
		return EncodedChunk{}, err
	}
	times := make([]int64, len(points))
	vals := make([]V, len(points))
	for i, pt := range points {
		if i > 0 && pt.T <= points[i-1].T {
			return EncodedChunk{}, fmt.Errorf("%w: t[%d]=%d after %d", ErrUnsorted, i, pt.T, points[i-1].T)
		}
		times[i] = pt.T
		vals[i] = pt.V
	}
	meta := ChunkMeta{
		Count:  len(points),
		MinT:   times[0],
		MaxT:   times[len(times)-1],
		Packer: packerName,
	}
	stored := storedValues(&meta, vals)
	body := encodeChunk(p, opt.BlockSize, meta, times, stored)
	meta.EncodedBytes = len(body)
	return EncodedChunk{Meta: meta, Body: body}, nil
}

// AppendEncoded installs a chunk produced by EncodeSeries, assigning its
// file offset. Chunks must be appended in the same order a serial Append
// sequence would have used for the file bytes to be identical. A zero chunk
// (Count 0) is a no-op.
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

// encodePacker resolves the packer for an off-writer encode. It returns a
// fresh instance even for the file default (re-resolving configured packers
// through the registry by name, the name the footer records), because
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
	if def := packers.NameOf(opt.Packer); def != "" {
		return packers.ByName(def)
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
	idx := encodeIndex(packers.NameOf(w.opt.packer()), w.order, w.index)
	if err := w.write(idx); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(idx)))
	copy(tail[4:], magic)
	return w.write(tail[:])
}

// encodeChunk writes a chunk body: the point count, the kind byte, for
// scaled chunks the decimal precision, then the two columns — timestamps
// delta-coded then packed, values packed directly — each framed by a
// byte-length varint so the decoder can split them. parseChunkHeader and
// decodeColumns invert it.
func encodeChunk(p codec.Packer, blockSize int, m ChunkMeta, times, vals []int64) []byte {
	body := codec.AppendUvarint(nil, uint64(len(vals)))
	body = append(body, m.Kind)
	if m.Kind == kindScaled {
		body = append(body, byte(m.Precision))
	}
	tcol := ts2diff.New(p, blockSize).Encode(nil, times)
	body = codec.AppendUvarint(body, uint64(len(tcol)))
	body = append(body, tcol...)
	vcol := codec.NewBlockwise(p, blockSize).Encode(nil, vals)
	body = codec.AppendUvarint(body, uint64(len(vcol)))
	return append(body, vcol...)
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

// decodeColumns inverts encodeChunk's columns for a chunk of n points. Every
// packed block records its own length, so decoding needs no block size. The
// time column is a new slice; the value column is appended to vals.
func decodeColumns(p codec.Packer, rest []byte, n int, vals []int64) ([]int64, []int64, error) {
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
	times, err := ts2diff.New(p, 0).Decode(tcol)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: time column: %v", ErrCorrupt, err)
	}
	if vals, err = codec.NewBlockwise(p, 0).AppendDecode(vals, vcol); err != nil {
		return nil, nil, fmt.Errorf("%w: value column: %v", ErrCorrupt, err)
	}
	return times, vals, nil
}
