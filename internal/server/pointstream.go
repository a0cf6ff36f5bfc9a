package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"bos/internal/bitpack"
	"bos/internal/codec"
	"bos/internal/tsfile"
)

// The point stream is the binary form of a /query answer. The server sends
// it instead of CSV when the request's Accept header is exactly
// pointsMediaType; the typed client asks for it on every /query call and
// reads nothing else:
//
//	stream       = kind frame* end
//	kind         = one byte: 'i' int points | 'f' float points | 'w' window buckets
//	frame        = uvarint n (1 <= n <= frameRecords), uvarint L, then L bytes
//	               holding one column per field, in record order
//	end          = uvarint 0; nothing may follow
//	'i' fields   = t, v
//	'f' fields   = t, v
//	'w' fields   = start, count, min, max, sum
//	int column   = varint Δ₀, uvarint B, then B bytes: Δ₁ … Δₙ₋₁ as one
//	               codec.Blockwise column over bitpack.Packer
//	float column = n × the 8-byte little-endian IEEE-754 bits of v
//
// Every field but the 'f' value is an int column. Its Δs are the wrapping
// int64 differences from the same field of the previous record; they start
// from 0 and carry across frames. varint is the zigzag form of
// encoding/binary. The Blockwise column is BP (Definition 1) in 1024-value
// blocks, each with its own minimum and width: IoTDB's TS2DIFF layout,
// first value, then packed deltas. Δ₀ stays out of the blocks because a
// stream's first Δ is an absolute timestamp, which would set the width of
// its whole block. Float bits go raw: frame-of-reference packing does not
// shrink mantissas that fill most of their 64 bits.
const pointsMediaType = "application/vnd.bos.columns"

// The kind bytes.
const (
	kindInt    = 'i'
	kindFloat  = 'f'
	kindWindow = 'w'
)

// frameRecords is the most records a frame holds: the engine's scan page
// (scanPageSize), so a 4096-point answer is one frame in one write.
const frameRecords = 4096

// maxFields is the most fields a record has: a 'w' record's five.
const maxFields = 5

// columnCodec packs the int columns' deltas after the first.
var columnCodec = codec.NewBlockwise(bitpack.Packer{}, codec.DefaultBlockSize)

// fieldsOf is the number of fields, and so of columns, of a kind's records.
func fieldsOf(kind byte) int {
	if kind == kindWindow {
		return maxFields
	}
	return 2
}

// rawColumn reports whether column f of a kind's frames is the 'f' value
// column of raw float bits.
func rawColumn(kind byte, f int) bool { return kind == kindFloat && f == 1 }

// maxIntColumnLen bounds the bytes of an int column of n values as
// appendColumns writes it: Δ₀, B, the Blockwise count, and per block of
// columnCodec its count, minimum, width byte and offsets of at most 64 bits.
func maxIntColumnLen(n int) int {
	blocks := (n - 1 + columnCodec.BlockSize - 1) / columnCodec.BlockSize
	return 3*binary.MaxVarintLen64 + blocks*(2*binary.MaxVarintLen64+1) + 8*(n-1)
}

// maxFrameLen bounds L, the column bytes of a frame of n records of a kind.
func maxFrameLen(kind byte, n int) int {
	if kind == kindFloat {
		return maxIntColumnLen(n) + 8*n
	}
	return fieldsOf(kind) * maxIntColumnLen(n)
}

// frameCols holds the records a writer has not sent yet, one column per
// field, and the fields of the last record it sent, which the next frame's
// deltas start from.
type frameCols struct {
	cols [maxFields][]int64
	prev [maxFields]int64
}

// reset readies f for a new stream of the kind, its columns holding a whole
// frame.
func (f *frameCols) reset(kind byte) {
	f.prev = [maxFields]int64{}
	for i := 0; i < fieldsOf(kind); i++ {
		if cap(f.cols[i]) < frameRecords {
			f.cols[i] = make([]int64, 0, frameRecords)
		}
		f.cols[i] = f.cols[i][:0]
	}
}

// appendColumns appends the pending records' columns to dst and empties
// them. It delta-codes the int columns in place.
func (f *frameCols) appendColumns(dst []byte, kind byte) []byte {
	for i := 0; i < fieldsOf(kind); i++ {
		col := f.cols[i]
		if rawColumn(kind, i) {
			for _, v := range col {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		} else {
			prev := f.prev[i]
			f.prev[i] = col[len(col)-1]
			for j, v := range col {
				col[j], prev = v-prev, v
			}
			dst = binary.AppendVarint(dst, col[0])
			at := len(dst)
			dst = columnCodec.Encode(dst, col[1:])
			dst = insertUvarint(dst, at, uint64(len(dst)-at))
		}
		f.cols[i] = col[:0]
	}
	return dst
}

// insertUvarint inserts x as a uvarint at dst[at], moving the bytes after
// it up.
func insertUvarint(dst []byte, at int, x uint64) []byte {
	var v [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(v[:], x)
	dst = append(dst, v[:k]...)
	copy(dst[at+k:], dst[at:len(dst)-k])
	copy(dst[at:], v[:k])
	return dst
}

// record is one decoded stream record: an 'i' record sets t and v, an 'f'
// record t and f, a 'w' record b.
type record struct {
	t, v int64
	f    float64
	b    Bucket
}

var (
	errCutShort = fmt.Errorf("client: point stream cut short: %w", io.ErrUnexpectedEOF)
	errOverlong = errors.New("client: point stream: varint overflows 64 bits")
	errTrailing = errors.New("client: point stream: bytes after the end frame")
	errColumn   = errors.New("client: point stream: a column overruns its frame")
)

// streamReaders holds the client's decoders with their buffers: a scan
// reads its answer in place in one, so it allocates nothing per frame.
var streamReaders = sync.Pool{New: func() any {
	return &streamReader{buf: make([]byte, 64<<10)}
}}

// streamReader reads a point stream in place in buf, whose unread bytes are
// buf[r:w], and decodes each frame into cols.
type streamReader struct {
	body io.Reader
	buf  []byte
	r, w int
	// err is the body's read error, io.EOF at its end. need returns it only
	// once the bytes read before it are used up.
	err  error
	cols [maxFields][]int64
	prev [maxFields]int64 // the last record's fields, the next Δs' base
	rec  record
}

// readStream decodes the point stream in body and calls fn with each record
// in order. want is the kind the caller reads (checkKind). A stream that is
// malformed, cut short or followed by more bytes is an error, and so is an
// error fn returns, which ends the read. Every whole frame that arrived
// before a read error is decoded, and its records passed to fn, before the
// error is returned.
func readStream(body io.Reader, want byte, fn func(kind byte, r *record) error) error {
	s := streamReaders.Get().(*streamReader)
	defer s.release()
	s.body = body
	if err := s.need(1); err != nil {
		if err == errCutShort {
			return fmt.Errorf("client: empty point stream: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	kind := s.buf[s.r]
	s.r++
	if err := checkKind(kind, want); err != nil {
		return err
	}
	for {
		n, err := s.uvarint()
		if err != nil {
			return err
		}
		if n == 0 {
			return s.end()
		}
		if n > frameRecords {
			return fmt.Errorf("client: point stream: a frame of %d records, over %d", n, frameRecords)
		}
		l, err := s.uvarint()
		if err != nil {
			return err
		}
		if bound := maxFrameLen(kind, int(n)); l > uint64(bound) {
			return fmt.Errorf("client: point stream: %d column bytes for %d records, over %d", l, n, bound)
		}
		if err := s.need(int(l)); err != nil {
			return err
		}
		cols := s.buf[s.r : s.r+int(l)]
		s.r += int(l)
		if err := s.frame(kind, int(n), cols, fn); err != nil {
			return err
		}
	}
}

// release returns s to the pool, holding nothing of its stream.
func (s *streamReader) release() {
	s.body, s.err, s.r, s.w = nil, nil, 0, 0
	s.prev = [maxFields]int64{}
	streamReaders.Put(s)
}

// checkKind accepts a stream of the kind a read wants; a float read also
// takes int points.
func checkKind(kind, want byte) error {
	switch {
	case kind == want, want == kindFloat && kind == kindInt:
		return nil
	case kind != kindInt && kind != kindFloat && kind != kindWindow:
		return fmt.Errorf("client: unknown point stream kind %q", kind)
	case want == kindInt && kind == kindFloat:
		return fmt.Errorf("client: an int read got float points: %w", tsfile.ErrKindMismatch)
	}
	return fmt.Errorf("client: a %q point stream answered a %q read", kind, want)
}

// need makes k unread bytes available in buf[r:], reading the body as far
// as that takes. It grows buf only when buf is full of unread bytes, so
// bytes that arrived size it, never a length the stream claims.
func (s *streamReader) need(k int) error {
	if s.w-s.r >= k {
		return nil
	}
	if len(s.buf)-s.r < k {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	for s.w-s.r < k {
		if s.err == io.EOF {
			return errCutShort
		}
		if s.err != nil {
			return s.err
		}
		if s.w == len(s.buf) {
			s.buf = append(s.buf, make([]byte, len(s.buf))...)
		}
		n, err := s.body.Read(s.buf[s.w:])
		s.w += n
		s.err = err
	}
	return nil
}

// uvarint reads a uvarint, reading the body as far as it takes.
func (s *streamReader) uvarint() (uint64, error) {
	for {
		x, k := binary.Uvarint(s.buf[s.r:s.w])
		if k > 0 {
			s.r += k
			return x, nil
		}
		if k < 0 {
			return 0, errOverlong
		}
		if err := s.need(s.w - s.r + 1); err != nil {
			return 0, err
		}
	}
}

// frame decodes a frame of n records from its column bytes src, then calls
// fn with each record in order. It checks every column before fn sees a
// record.
func (s *streamReader) frame(kind byte, n int, src []byte, fn func(byte, *record) error) error {
	var raw []byte // the 'f' value column
	for f := 0; f < fieldsOf(kind); f++ {
		if rawColumn(kind, f) {
			if len(src) < 8*n {
				return errColumn
			}
			raw, src = src[:8*n], src[8*n:]
			continue
		}
		if cap(s.cols[f]) < frameRecords {
			s.cols[f] = make([]int64, 0, frameRecords)
		}
		col, rest, err := readIntColumn(s.cols[f][:0], src, n)
		if err != nil {
			return err
		}
		acc := s.prev[f]
		for i, d := range col {
			acc += d
			col[i] = acc
		}
		s.prev[f], s.cols[f], src = acc, col, rest
	}
	if len(src) != 0 {
		return fmt.Errorf("client: point stream: %d bytes after a frame's columns", len(src))
	}
	rec := &s.rec
	switch kind {
	case kindInt:
		t, v := s.cols[0][:n], s.cols[1][:n]
		for i := range t {
			rec.t, rec.v = t[i], v[i]
			if err := fn(kindInt, rec); err != nil {
				return err
			}
		}
	case kindFloat:
		t := s.cols[0][:n]
		for i := range t {
			rec.t, rec.f = t[i], math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if err := fn(kindFloat, rec); err != nil {
				return err
			}
		}
	default:
		start, count, lo, hi, sum := s.cols[0][:n], s.cols[1][:n], s.cols[2][:n], s.cols[3][:n], s.cols[4][:n]
		for i := range start {
			if c := count[i]; c < 0 || int64(int(c)) != c {
				return fmt.Errorf("client: point stream: window count %d", c)
			}
			rec.b = Bucket{Start: start[i], Count: int(count[i]), Min: lo[i], Max: hi[i], Sum: sum[i]}
			if err := fn(kindWindow, rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// readIntColumn appends the n deltas of the int column at the front of src
// to dst, and returns the rest of src. The Blockwise column must declare
// n-1 values before anything decodes it.
func readIntColumn(dst []int64, src []byte, n int) ([]int64, []byte, error) {
	d0, k := binary.Varint(src)
	if k <= 0 {
		return nil, nil, errColumn
	}
	src = src[k:]
	b, k := binary.Uvarint(src)
	if k <= 0 || b > uint64(len(src)-k) {
		return nil, nil, errColumn
	}
	col, rest := src[k:k+int(b)], src[k+int(b):]
	if count, _, err := codec.ReadUvarint(col); err != nil || count != uint64(n-1) {
		return nil, nil, fmt.Errorf("client: point stream: a column of a %d-record frame does not hold %d packed deltas", n, n-1)
	}
	dst, err := columnCodec.AppendDecode(append(dst, d0), col)
	if err != nil {
		return nil, nil, fmt.Errorf("client: point stream: %w", err)
	}
	return dst, rest, nil
}

// end checks that nothing follows the end frame, reading the body to its
// end so the connection can be reused.
func (s *streamReader) end() error {
	for s.r == s.w && s.err == nil {
		s.r = 0
		s.w, s.err = s.body.Read(s.buf)
	}
	if s.r < s.w {
		return errTrailing
	}
	if s.err != io.EOF {
		return s.err
	}
	return nil
}
