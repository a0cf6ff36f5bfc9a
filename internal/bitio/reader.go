package bitio

import (
	"errors"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of stream")

// ErrOverflow is returned when a read would exceed 64 bits: a malformed or
// oversized varint, or a requested bit width greater than 64.
var ErrOverflow = errors.New("bitio: value overflows 64 bits")

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	data []byte
	pos  int // absolute bit position
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// ReadBit consumes and returns one bit.
//
//bos:hotpath
func (r *Reader) ReadBit() (uint64, error) {
	if r.pos >= len(r.data)*8 {
		return 0, ErrUnexpectedEOF
	}
	b := r.data[r.pos>>3]
	bit := uint64(b>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

// ReadBits consumes `width` bits (MSB-first) and returns them right-aligned.
// width must be in [0, 64]; width 0 returns 0 without consuming anything.
//
//bos:hotpath
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		return 0, ErrOverflow
	}
	if r.pos+int(width) > len(r.data)*8 {
		return 0, ErrUnexpectedEOF
	}
	var v uint64
	pos := r.pos
	for width > 0 {
		rem := 8 - uint(pos&7) // bits remaining in current byte
		take := rem
		if take > width {
			take = width
		}
		b := uint64(r.data[pos>>3])
		b >>= rem - take
		b &= (1 << take) - 1
		v = v<<take | b
		pos += int(take)
		width -= take
	}
	r.pos = pos
	return v, nil
}

// ReadUvarint consumes a base-128 varint written by Writer.WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		g, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if shift == 63 && g > 1 {
			return 0, ErrOverflow
		}
		v |= (g & 0x7f) << shift
		if g < 0x80 {
			return v, nil
		}
		shift += 7
		if shift > 63 {
			return 0, ErrOverflow
		}
	}
}

// ReadVarint consumes a zigzag varint written by Writer.WriteVarint.
func (r *Reader) ReadVarint() (int64, error) {
	u, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return UnZigZag(u), nil
}

// AlignByte skips ahead to the next byte boundary.
func (r *Reader) AlignByte() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
	}
}

// BitPos reports the current absolute bit position.
func (r *Reader) BitPos() int { return r.pos }

// Rest returns the unread suffix of the underlying buffer, rounding the
// current position up to a byte boundary first. It is used to hand the tail
// of a multi-section stream to another decoder.
func (r *Reader) Rest() []byte {
	r.AlignByte()
	return r.data[r.pos>>3:]
}

// Data exposes the underlying buffer and the current bit position for
// callers that decode a bounds-checked region with their own inner loop
// (e.g. the BOS bitmap). Pair with SetBitPos to resume normal reads.
func (r *Reader) Data() ([]byte, int) { return r.data, r.pos }

// SetBitPos moves the cursor to an absolute bit position previously derived
// from Data. Positions beyond the buffer are clamped to its end.
func (r *Reader) SetBitPos(pos int) {
	if pos < 0 {
		pos = 0
	}
	if max := len(r.data) * 8; pos > max {
		pos = max
	}
	r.pos = pos
}
