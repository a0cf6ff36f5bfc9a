package bitio

import "encoding/binary"

// Bulk fixed-width paths for the hot loops of block packing: same stream
// layout as repeated WriteBits/ReadBits calls, but executed block-at-a-time.
// WriteBulk (with the fused WriteBulkInt64 on top) is the write front door
// and ReadBulkInt64 the read one. When the stream position is byte-aligned
// and at least 8 values remain, they dispatch into the width-specialized
// kernels of kernels_*_gen.go (64 values per call, 8 for the tail;
// whole-word loads/stores, no per-value width dispatch, one bounds check per
// block). A bit-unaligned read of 8+ values — the BOS inlier plane sits
// after the n+outliers-bit bitmap, so this is the common decode case —
// stages each block through a stack buffer shifted to byte alignment (one
// word-sized shift/or per 8 stream bytes) and runs the aligned kernel on
// that, for the widths where that beats the scalar loop (see
// stageUnaligned); a bit-unaligned write stages the other way (see
// writeBulkStaged). Short runs and buffer tails take the scalar paths
// below: a value of width <= 56 starting at any bit offset o (0..7) occupies
// at most o+56 <= 63 bits, so it always fits in the 8 bytes beginning at its
// first byte — load big-endian, shift, mask. Widths above 56 fall back to
// per-value ReadBits/WriteBits there, as does the tail of the read buffer
// where an 8-byte load would run past the end.

const bulkMaxWidth = 56

// WriteBulk appends every value at the given width. The stream is
// byte-identical to calling WriteBits for each value (the pack kernels mask
// each value to `width` bits exactly like WriteBits does).
//
//bos:hotpath
func (w *Writer) WriteBulk(vals []uint64, width uint) {
	if width == 0 || len(vals) == 0 {
		return
	}
	if width > 64 {
		// Invalid width; preserve the historical WriteBits-per-value
		// behavior rather than guessing a clamp.
		for _, v := range vals {
			w.WriteBits(v, width)
		}
		return
	}
	i := 0
	if w.nbits == 0 && len(vals) >= kernelTail {
		// Kernel path: byte-aligned, so blocks store whole big-endian
		// words directly into the buffer. An 8-value tail block stores
		// ceil(width/8) full words for width logical bytes; the slack
		// bytes beyond the logical length are zeros that later writes
		// overwrite (every logical byte is still written exactly once).
		need := len(w.buf) + (len(vals)*int(width))>>3 + 8
		buf := w.buf
		if cap(buf) >= need {
			buf = buf[:need]
		} else {
			buf = make([]byte, need)
			copy(buf, w.buf)
		}
		k := len(w.buf)
		for ; i+kernelBlock <= len(vals); i += kernelBlock {
			kernelPack64(width, (*[64]uint64)(vals[i:]), buf[k:])
			k += int(width) * 8
		}
		for ; i+kernelTail <= len(vals); i += kernelTail {
			kernelPack8(width, (*[8]uint64)(vals[i:]), buf[k:])
			k += int(width)
		}
		w.buf = buf[:k]
	} else if len(vals) >= kernelTail {
		// Bit-unaligned: the mirror of the read side's staging. Pack each
		// block byte-aligned into a stack buffer with the same kernels,
		// then shift it into the stream one word at a time (one shift/or
		// pair per 8 output bytes). This is how encodeBOS center runs —
		// which always sit after the n+outliers-bit bitmap — reach the
		// kernels; the scalar accumulator only keeps the sub-8-value tail.
		i = w.writeBulkStaged(vals, width)
	}
	if i < len(vals) {
		w.writeBulkScalar(vals[i:], width)
	}
}

// writeBulkStaged appends whole kernel blocks of vals at the given width to
// a bit-unaligned stream (0 < nbits < 8) and returns how many values it
// consumed. Each block is packed byte-aligned into a stack buffer by the
// width kernels, then merged into the stream shifted right by the pending
// bit count: emit = carry | word>>o, next carry = word<<(64-o). Every block
// spans a whole number of bytes (64*W bits, or 8*W bits for tails), so the
// pending bit count is invariant across blocks; a tail block whose last
// word is only partially logical advances by the logical bytes and keeps
// the o carry bits that follow them (the staged slack beyond is zero).
//
//bos:hotpath
func (w *Writer) writeBulkStaged(vals []uint64, width uint) int {
	o := w.nbits
	need := len(w.buf) + (int(o)+len(vals)*int(width))>>3 + 16
	buf := w.buf
	if cap(buf) >= need {
		buf = buf[:need]
	} else {
		buf = make([]byte, need)
		copy(buf, w.buf)
	}
	k := len(w.buf)
	carry := w.cur << (64 - o)
	var tmp [kernelBlock * 8]byte
	i := 0
	bb := int(width) * 8
	for ; i+kernelBlock <= len(vals); i += kernelBlock {
		kernelPack64(width, (*[64]uint64)(vals[i:]), tmp[:])
		for j := 0; j < bb; j += 8 {
			x := binary.BigEndian.Uint64(tmp[j:])
			binary.BigEndian.PutUint64(buf[k:], carry|x>>o)
			carry = x << (64 - o)
			k += 8
		}
	}
	for lb := int(width); i+kernelTail <= len(vals); i += kernelTail {
		kernelPack8(width, (*[8]uint64)(vals[i:]), tmp[:])
		for j := 0; j < lb; j += 8 {
			x := binary.BigEndian.Uint64(tmp[j:])
			emit := carry | x>>o
			binary.BigEndian.PutUint64(buf[k:], emit)
			if adv := lb - j; adv < 8 {
				// Partial last word: x's bytes past the logical length
				// are kernel slack zeros, so the o bits that follow the
				// logical bytes are the only live carry. The stored
				// slack bytes sit beyond k and are overwritten by the
				// next store or left past the final length.
				carry = emit << (uint(adv) * 8)
				k += adv
			} else {
				carry = x << (64 - o)
				k += 8
			}
		}
	}
	w.buf = buf[:k]
	w.cur = carry >> (64 - o)
	return i
}

// WriteBulkInt64 appends (uint64(v) - base) & (2^width - 1) for every value
// — the fused frame-of-reference encode loop shared by the block encoders.
// The stream is byte-identical to computing the offsets by hand and calling
// WriteBulk (or WriteBits per value); fusing saves callers a heap-allocated
// scratch slice.
//
//bos:hotpath
func (w *Writer) WriteBulkInt64(vals []int64, base uint64, width uint) {
	var tmp [kernelBlock]uint64
	for len(vals) > 0 {
		n := len(vals)
		if n > kernelBlock {
			n = kernelBlock
		}
		for i := 0; i < n; i++ {
			tmp[i] = uint64(vals[i]) - base
		}
		w.WriteBulk(tmp[:n], width)
		vals = vals[n:]
	}
}

// writeBulkScalar is the pre-kernel WriteBulk body: a left-aligned 64-bit
// accumulator window flushed with one big-endian store per 8 output bytes.
// It handles any starting bit alignment; widths above 56 go through
// WriteBits per value. Kept verbatim as the fallback (and as the baseline
// the differential tests and benchmarks compare the kernels against).
//
//bos:hotpath
func (w *Writer) writeBulkScalar(vals []uint64, width uint) {
	if width > bulkMaxWidth {
		for _, v := range vals {
			w.WriteBits(v, width)
		}
		return
	}
	// Values accumulate left-aligned in a 64-bit window; every time the
	// window fills, one big-endian 8-byte store flushes it. That is one
	// byte swap per 8 output bytes instead of per value, and every output
	// byte is written exactly once, so the buffer needs no pre-zeroing.
	// Stores are contiguous from k; the final store's trailing bytes are
	// zero (the window's unused low bits) and fall beyond the new length,
	// so the +8 slack keeps it in bounds.
	total := len(w.buf)*8 + int(w.nbits) + len(vals)*int(width)
	need := total>>3 + 8
	buf := w.buf
	if cap(buf) >= need {
		buf = buf[:need]
	} else {
		buf = make([]byte, need)
		copy(buf, w.buf)
	}
	k := len(w.buf)
	var acc uint64
	used := w.nbits
	if used != 0 {
		acc = w.cur << (64 - used)
	}
	mask := uint64(1)<<width - 1
	for _, v := range vals {
		v &= mask
		if free := 64 - used; width <= free {
			acc |= v << (free - width)
			used += width
		} else {
			binary.BigEndian.PutUint64(buf[k:], acc|v>>(width-free))
			k += 8
			used = width - free
			acc = v << (64 - used)
		}
		if used == 64 {
			binary.BigEndian.PutUint64(buf[k:], acc)
			k += 8
			acc, used = 0, 0
		}
	}
	if used != 0 {
		binary.BigEndian.PutUint64(buf[k:], acc)
		k += int(used) >> 3
	}
	w.buf = buf[:k]
	w.nbits = used & 7
	w.cur = 0
	if w.nbits != 0 {
		w.cur = (acc >> (64 - used)) & (1<<w.nbits - 1)
	}
}

// stageUnaligned reports whether the staged-realignment path beats the
// scalar fallback for a bit-unaligned read at the given width. Staging
// copies one stream byte per value per 8 values before unpacking, so in the
// mid-range (33..56 bits) the copy alone costs as much as the scalar loop's
// single unaligned load per value and scalar wins; at 32 and below the
// kernel's shared loads amortize the copy, and above 56 the scalar path
// itself degrades to per-value ReadBits, so staging wins on both sides.
func stageUnaligned(width uint) bool {
	return width <= 32 || width > bulkMaxWidth
}

// realign copies len(dst) stream bytes starting o bits (1..7) into data[k]
// out to dst, shifted left so dst begins at a byte boundary. len(dst) must
// be a multiple of 8 and data[k+len(dst)] must exist: the byte after the
// window feeds the final word's carry.
//
//bos:hotpath
func realign(data []byte, k int, o uint, dst []byte) {
	_ = data[k+len(dst)]
	for j := 0; j < len(dst); j += 8 {
		w := binary.BigEndian.Uint64(data[k+j:])<<o | uint64(data[k+j+8])>>(8-o)
		binary.BigEndian.PutUint64(dst[j:], w)
	}
}

// ReadBulkInt64 reads len(out) consecutive width-bit offsets and stores
// base+offset as int64 — the fused frame-of-reference decode loop behind
// every block decoder, each of which stores offsets from a base (a decoder
// that wants the raw offsets passes its base and subtracts it again). It is
// all-or-nothing: a stream too short for len(out) values returns
// ErrUnexpectedEOF without decoding anything or moving the position, and a
// width above 64 returns ErrOverflow.
//
//bos:hotpath
func (r *Reader) ReadBulkInt64(out []int64, width uint, base uint64) error {
	if len(out) == 0 {
		return nil
	}
	if width > 64 {
		return ErrOverflow
	}
	if r.pos+len(out)*int(width) > len(r.data)*8 {
		return ErrUnexpectedEOF
	}
	if width == 0 {
		for i := range out {
			out[i] = int64(base)
		}
		return nil
	}
	i := 0
	if r.pos&7 == 0 && len(out) >= kernelTail {
		data := r.data[r.pos>>3:]
		k := 0
		for ; i+kernelBlock <= len(out); i += kernelBlock {
			kernelUnpack64Int64(width, data[k:], (*[64]int64)(out[i:]), base)
			k += int(width) * 8
		}
		for need := tailBytes(width); i+kernelTail <= len(out) && k+need <= len(data); i += kernelTail {
			kernelUnpack8Int64(width, data[k:], (*[8]int64)(out[i:]), base)
			k += int(width)
		}
		r.pos += i * int(width)
	} else if len(out) >= kernelTail && stageUnaligned(width) {
		// Unaligned: 64 values span exactly width*8 bytes and 8 values
		// exactly width bytes, so the sub-byte offset repeats block to
		// block. Stage each block through a stack buffer shifted to byte
		// alignment (one word-sized shift/or per 8 stream bytes) and run
		// the aligned kernel on it. The staging arrays are scoped so a
		// short run only pays for zeroing the 64-byte one.
		o := uint(r.pos) & 7
		k := r.pos >> 3
		if len(out) >= kernelBlock {
			var tmp [kernelBlock * 8]byte
			bb := int(width) * 8
			for ; i+kernelBlock <= len(out) && k+bb < len(r.data); i += kernelBlock {
				realign(r.data, k, o, tmp[:bb])
				kernelUnpack64Int64(width, tmp[:bb], (*[64]int64)(out[i:]), base)
				k += bb
			}
		}
		var tmp8 [kernelTail * 8]byte
		for need := tailBytes(width); i+kernelTail <= len(out) && k+need < len(r.data); i += kernelTail {
			realign(r.data, k, o, tmp8[:need])
			kernelUnpack8Int64(width, tmp8[:need], (*[8]int64)(out[i:]), base)
			k += int(width)
		}
		r.pos += i * int(width)
	}
	return r.readBulkInt64Scalar(out[i:], width, base)
}

// readBulkInt64Scalar is the pre-kernel ReadBulkInt64 inner loop: one
// unaligned 8-byte big-endian load per value while the buffer allows it,
// per-value ReadBits near the end and for widths above 56. The caller
// guarantees len(out)*width bits remain. Kept verbatim as the
// unaligned/short-run fallback and the differential-test baseline.
//
//bos:hotpath
func (r *Reader) readBulkInt64Scalar(out []int64, width uint, base uint64) error {
	if width > bulkMaxWidth {
		for i := range out {
			v, err := r.ReadBits(width)
			if err != nil {
				return err
			}
			out[i] = int64(base + v)
		}
		return nil
	}
	mask := uint64(1)<<width - 1
	pos := r.pos
	i := 0
	for ; i < len(out) && pos>>3+8 <= len(r.data); i++ {
		o := uint(pos) & 7
		w := binary.BigEndian.Uint64(r.data[pos>>3:])
		out[i] = int64(base + w>>(64-o-width)&mask)
		pos += int(width)
	}
	r.pos = pos
	for ; i < len(out); i++ { // last few values near the buffer end
		v, err := r.ReadBits(width)
		if err != nil {
			return err
		}
		out[i] = int64(base + v)
	}
	return nil
}
