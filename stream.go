package bos

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Writer streams int64 values to an io.Writer as a sequence of
// length-prefixed compressed segments, one per block of Options.BlockSize
// values. It mirrors the block-file layout BOS uses inside Apache
// IoTDB/TsFile (Section VII of the paper): each segment is self-contained,
// so a reader can scan block by block without decoding the whole file.
type Writer struct {
	segmentWriter[int64]
}

// NewWriter returns a Writer with the given options.
func NewWriter(w io.Writer, opt Options) *Writer {
	return &Writer{newSegmentWriter(w, opt, Compress)}
}

// FloatWriter streams float64 values as length-prefixed compressed segments,
// the float twin of Writer. Each segment independently detects its decimal
// precision, so a stream may mix scaled and raw segments and stay lossless
// throughout.
type FloatWriter struct {
	segmentWriter[float64]
}

// NewFloatWriter returns a FloatWriter with the given options.
func NewFloatWriter(w io.Writer, opt Options) *FloatWriter {
	return &FloatWriter{newSegmentWriter(w, opt, CompressFloats)}
}

// segmentWriter is the one segment writer behind Writer and FloatWriter;
// compress turns one block of values into a segment.
type segmentWriter[V int64 | float64] struct {
	w        io.Writer
	opt      Options
	compress func(dst []byte, vals []V, opt Options) []byte
	buf      []V
	scr      []byte
	err      error
}

func newSegmentWriter[V int64 | float64](w io.Writer, opt Options, compress func([]byte, []V, Options) []byte) segmentWriter[V] {
	return segmentWriter[V]{w: w, opt: opt, compress: compress, buf: make([]V, 0, blockSizeOf(opt))}
}

// WriteValues appends values to the stream, emitting full segments as blocks
// fill up.
func (w *segmentWriter[V]) WriteValues(vals ...V) error {
	if w.err != nil {
		return w.err
	}
	bs := blockSizeOf(w.opt)
	for len(vals) > 0 {
		take := bs - len(w.buf)
		if take > len(vals) {
			take = len(vals)
		}
		w.buf = append(w.buf, vals[:take]...)
		vals = vals[take:]
		if len(w.buf) == bs {
			w.err = w.emit()
			if w.err != nil {
				return w.err
			}
		}
	}
	return nil
}

// emit writes the buffered values as one segment.
func (w *segmentWriter[V]) emit() error {
	seg := w.compress(w.scr[:0], w.buf, w.opt)
	w.scr = seg
	w.buf = w.buf[:0]
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(seg)))
	if _, err := w.w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(seg)
	return err
}

// Flush writes any buffered values as a final (possibly short) segment.
func (w *segmentWriter[V]) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		w.err = w.emit()
	}
	return w.err
}

// Close flushes the writer. It does not close the underlying io.Writer.
func (w *segmentWriter[V]) Close() error { return w.Flush() }

// Reader decodes a stream produced by Writer, one segment at a time.
type Reader struct {
	segmentReader[int64]
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{segmentReader[int64]{bufio.NewReader(r), Decompress}}
}

// ReadAll drains a stream produced by Writer into one slice.
func ReadAll(r io.Reader) ([]int64, error) {
	return NewReader(r).readAll()
}

// FloatReader decodes a stream produced by FloatWriter, one segment at a
// time.
type FloatReader struct {
	segmentReader[float64]
}

// NewFloatReader returns a FloatReader over r.
func NewFloatReader(r io.Reader) *FloatReader {
	return &FloatReader{segmentReader[float64]{bufio.NewReader(r), DecompressFloats}}
}

// ReadAllFloats drains a FloatWriter stream into one slice.
func ReadAllFloats(r io.Reader) ([]float64, error) {
	return NewFloatReader(r).readAll()
}

// segmentReader is the one segment reader behind Reader and FloatReader;
// decompress turns one segment back into values.
type segmentReader[V int64 | float64] struct {
	r          *bufio.Reader
	decompress func([]byte) ([]V, error)
}

// Next returns the values of the next segment, or io.EOF when the stream is
// exhausted.
func (r *segmentReader[V]) Next() ([]V, error) {
	segLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: segment length: %v", ErrCorrupt, err)
	}
	if segLen > 1<<31 {
		return nil, fmt.Errorf("%w: segment of %d bytes", ErrCorrupt, segLen)
	}
	seg := make([]byte, segLen)
	if _, err := io.ReadFull(r.r, seg); err != nil {
		return nil, fmt.Errorf("%w: segment body: %v", ErrCorrupt, err)
	}
	return r.decompress(seg)
}

// readAll drains the stream into one slice.
func (r *segmentReader[V]) readAll() ([]V, error) {
	var out []V
	for {
		vals, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
}
