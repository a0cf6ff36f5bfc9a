package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"bos/internal/tsfile"
)

// The point stream is the binary form of a /query answer. The server sends
// it instead of CSV when the request's Accept header is exactly
// pointsMediaType; the typed client asks for it on every /query call and
// reads nothing else:
//
//	stream     = kind frame* end
//	kind       = one byte: 'i' int points | 'f' float points | 'w' window buckets
//	frame      = uvarint n (n >= 1), then n records
//	end        = uvarint 0; nothing may follow
//	'i' record = varint Δt, varint Δv
//	'f' record = varint Δt, 8-byte little-endian IEEE-754 bits of v
//	'w' record = varint Δstart, uvarint count, varint min, varint max, varint sum
//
// varint is the zigzag form of encoding/binary. Each Δ is the wrapping int64
// difference from the same field of the previous record; it starts from 0
// and carries across frames. The server sends one frame per chunk it
// flushes.
const pointsMediaType = "application/vnd.bos.points"

// The kind bytes.
const (
	kindInt    = 'i'
	kindFloat  = 'f'
	kindWindow = 'w'
)

// maxRecordLen bounds one encoded record: a 'w' record is five varints.
const maxRecordLen = 5 * binary.MaxVarintLen64

// deltas holds the delta-coded fields of the last record a writer appended.
type deltas struct{ t, v int64 }

func (d *deltas) appendInt(dst []byte, t, v int64) []byte {
	dst = binary.AppendVarint(dst, t-d.t)
	dst = binary.AppendVarint(dst, v-d.v)
	d.t, d.v = t, v
	return dst
}

func (d *deltas) appendFloat(dst []byte, t int64, v float64) []byte {
	dst = binary.AppendVarint(dst, t-d.t)
	d.t = t
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func (d *deltas) appendBucket(dst []byte, b Bucket) []byte {
	dst = binary.AppendVarint(dst, b.Start-d.t)
	d.t = b.Start
	dst = binary.AppendUvarint(dst, uint64(b.Count))
	dst = binary.AppendVarint(dst, b.Min)
	dst = binary.AppendVarint(dst, b.Max)
	return binary.AppendVarint(dst, b.Sum)
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
)

// streamBufs holds the client's decode buffers: a scan reads its answer in
// place in one of them, so it allocates nothing per record.
var streamBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// readStream decodes the point stream in body and calls fn with each record
// in order. want is the kind the caller reads (checkKind). A stream that is
// malformed, cut short or followed by more bytes is an error, and so is an
// error fn returns, which ends the read.
func readStream(body io.Reader, want byte, fn func(kind byte, r *record) error) error {
	bp := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(bp)
	s := streamReader{body: body, buf: *bp}
	if err := s.fill(); err != nil {
		return err
	}
	if s.r == s.w {
		return fmt.Errorf("client: empty point stream: %w", io.ErrUnexpectedEOF)
	}
	kind := s.buf[s.r]
	s.r++
	if err := checkKind(kind, want); err != nil {
		return err
	}
	var rec record
	for {
		if err := s.fill(); err != nil {
			return err
		}
		n, err := s.uvarint()
		if err != nil {
			return err
		}
		if n == 0 {
			return s.end()
		}
		for ; n > 0; n-- {
			if s.w-s.r < maxRecordLen {
				if err := s.fill(); err != nil {
					return err
				}
			}
			if err := s.decode(kind, &rec); err != nil {
				return err
			}
			if err := fn(kind, &rec); err != nil {
				return err
			}
		}
	}
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

// streamReader reads a point stream in place in buf, whose unread bytes are
// buf[r:w].
type streamReader struct {
	body io.Reader
	buf  []byte
	r, w int
	eof  bool
}

// fill makes at least maxRecordLen bytes readable, or all the body has left.
func (s *streamReader) fill() error {
	if s.w-s.r >= maxRecordLen || s.eof {
		return nil
	}
	s.w = copy(s.buf, s.buf[s.r:s.w])
	s.r = 0
	for s.w < maxRecordLen {
		n, err := s.body.Read(s.buf[s.w:])
		s.w += n
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// varintErr explains a varint binary.Uvarint could not read:
// n == 0 means the bytes ran out, which after fill happens only at the end
// of the body, and n < 0 an over-long varint.
func varintErr(n int) error {
	if n == 0 {
		return errCutShort
	}
	return errOverlong
}

func (s *streamReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(s.buf[s.r:s.w])
	if n <= 0 {
		return 0, varintErr(n)
	}
	s.r += n
	return x, nil
}

// varint reads a zigzag varint, undoing the zigzag as binary.Varint does.
func (s *streamReader) varint() (int64, error) {
	ux, err := s.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// decode reads one record of the given kind into rec, which holds the
// previous one.
func (s *streamReader) decode(kind byte, rec *record) error {
	dt, err := s.varint()
	if err != nil {
		return err
	}
	rec.t += dt
	switch kind {
	case kindInt:
		dv, err := s.varint()
		if err != nil {
			return err
		}
		rec.v += dv
	case kindFloat:
		if s.w-s.r < 8 {
			return errCutShort
		}
		rec.f = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[s.r:]))
		s.r += 8
	case kindWindow:
		count, err := s.uvarint()
		if err != nil {
			return err
		}
		if count > math.MaxInt {
			return fmt.Errorf("client: point stream: window count %d overflows int", count)
		}
		rec.b = Bucket{Start: rec.t, Count: int(count)}
		for _, f := range []*int64{&rec.b.Min, &rec.b.Max, &rec.b.Sum} {
			if *f, err = s.varint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// end checks that nothing follows the end frame, reading the body to its
// end so the connection can be reused.
func (s *streamReader) end() error {
	for s.r == s.w && !s.eof {
		n, err := s.body.Read(s.buf[:1])
		s.w = n
		s.r = 0
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return err
		}
	}
	if s.r < s.w {
		return errTrailing
	}
	return nil
}
