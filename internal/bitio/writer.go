// Package bitio provides bit-granular writers and readers used by every
// encoder in this repository, together with the zigzag and varint helpers
// shared by the block formats.
//
// Bits are packed MSB-first within each byte, matching the storage layout in
// Figure 7 of the BOS paper: the first bit written occupies the highest bit
// of the first byte. Varints use the standard little-endian base-128 layout
// of encoding/binary but may start at any bit offset, so headers and payloads
// can interleave freely inside one stream.
package bitio

import "math/bits"

// Writer accumulates a bit stream in memory. The zero value is ready to use.
type Writer struct {
	buf   []byte
	cur   uint64 // pending bits, left-aligned in the low `nbits` positions
	nbits uint   // number of pending bits in cur (always < 8)
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Reset discards all written data, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.nbits = 0
}

// WriteBit appends a single bit (the low bit of b).
//
//bos:hotpath
func (w *Writer) WriteBit(b uint64) {
	w.cur = w.cur<<1 | (b & 1)
	w.nbits++
	if w.nbits == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur = 0
		w.nbits = 0
	}
}

// WriteBits appends the low `width` bits of v, most significant bit first.
// width must be in [0, 64]; width 0 writes nothing.
//
//bos:hotpath
func (w *Writer) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	// Fill the pending byte first.
	for width > 0 && w.nbits != 0 {
		width--
		w.WriteBit(v >> width)
	}
	// Then emit whole bytes.
	for width >= 8 {
		width -= 8
		w.buf = append(w.buf, byte(v>>width))
	}
	// Remainder stays pending.
	for width > 0 {
		width--
		w.WriteBit(v >> width)
	}
}

// WriteUvarint appends v in base-128 varint form (bit-aligned, 8 bits per
// group, so it works mid-stream).
func (w *Writer) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.WriteBits(v&0x7f|0x80, 8)
		v >>= 7
	}
	w.WriteBits(v, 8)
}

// WriteVarint appends v using zigzag-then-uvarint encoding.
func (w *Writer) WriteVarint(v int64) {
	w.WriteUvarint(ZigZag(v))
}

// AlignByte pads the stream with zero bits up to the next byte boundary.
func (w *Writer) AlignByte() {
	for w.nbits != 0 {
		w.WriteBit(0)
	}
}

// BitLen reports the number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nbits)
}

// Bytes flushes any pending bits (zero-padding the final byte) and returns
// the accumulated buffer. The Writer may continue to be used afterwards, but
// the padding bits become part of the stream.
func (w *Writer) Bytes() []byte {
	w.AlignByte()
	return w.buf
}

// ZigZag maps signed integers to unsigned ones with small absolute values
// mapping to small results: 0,-1,1,-2,... -> 0,1,2,3,...
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// WidthOf returns the number of bits needed to represent v, i.e.
// ceil(log2(v+1)); WidthOf(0) == 0.
func WidthOf(v uint64) uint {
	return uint(bits.Len64(v))
}
