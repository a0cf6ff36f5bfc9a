// Package codec defines the contracts shared by every compression component
// in this repository.
//
// The paper's central claim is that BOS is a drop-in replacement for the
// bit-packing *operator* inside larger compression methods (RLE, SPRINTZ,
// TS2DIFF, ...). That factoring is expressed here: a Packer packs one block
// of integers, an IntCodec compresses a whole integer series (usually by
// transforming it and delegating blocks to a Packer), a FloatCodec compresses
// float64 series directly, and a ByteCompressor is a general byte-stream
// compressor that can be layered on top (Figure 13).
package codec

import (
	"fmt"
	"slices"
)

// DefaultBlockSize is the number of values per packed block, matching the
// paper's experimental default.
const DefaultBlockSize = 1024

// MaxBlockLen is the largest number of values a single packed block may
// declare. Decoders reject larger counts before allocating: a block whose
// values all pack to width 0 is otherwise free to claim an arbitrarily large
// count, which would let corrupt input trigger unbounded allocation.
const MaxBlockLen = 1 << 22

// Packer packs one block of int64 values into a self-delimiting byte blob.
// Pack appends to dst and returns the extended slice. Unpack consumes one
// blob from the front of src, appends the decoded values to out, and returns
// the grown slice plus the unread remainder of src. A blob begins with its
// value count as a uvarint, so a column decoder can check a block against
// what it still lacks before unpacking it (BlockLen).
//
// Implementations must round-trip arbitrary int64 values (the full range,
// including MinInt64/MaxInt64) and must return an error — never panic — on
// truncated or corrupted input.
type Packer interface {
	Name() string
	Pack(dst []byte, vals []int64) []byte
	Unpack(src []byte, out []int64) (vals []int64, rest []byte, err error)
}

// IntCodec compresses a complete integer series. The packer pipelines that
// tsfile chunks use, Blockwise and ts2diff.Codec, also decode into a
// caller's buffer: AppendDecode(dst, src) appends the decoded values to dst,
// returns dst at its length on entry on error, and Decode is
// AppendDecode(nil, src).
type IntCodec interface {
	Name() string
	Encode(dst []byte, vals []int64) []byte
	Decode(src []byte) ([]int64, error)
}

// FloatCodec compresses a complete float64 series. Decoded values must be
// bit-for-bit identical to the input (lossless).
type FloatCodec interface {
	Name() string
	Encode(dst []byte, vals []float64) []byte
	Decode(src []byte) ([]float64, error)
}

// ByteCompressor is a general-purpose byte-stream compressor.
type ByteCompressor interface {
	Name() string
	Compress(dst, src []byte) []byte
	Decompress(src []byte) ([]byte, error)
}

// Blockwise adapts a Packer into an IntCodec by splitting the series into
// fixed-size blocks. It is the "raw" pipeline used when a packing operator is
// evaluated on its own.
type Blockwise struct {
	Packer    Packer
	BlockSize int
}

// NewBlockwise returns a Blockwise codec over p with the given block size
// (DefaultBlockSize if size <= 0).
func NewBlockwise(p Packer, size int) *Blockwise {
	if size <= 0 {
		size = DefaultBlockSize
	}
	return &Blockwise{Packer: p, BlockSize: size}
}

// Name implements IntCodec.
func (b *Blockwise) Name() string { return b.Packer.Name() }

// Encode implements IntCodec.
func (b *Blockwise) Encode(dst []byte, vals []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(vals)))
	for off := 0; off < len(vals); off += b.BlockSize {
		end := off + b.BlockSize
		if end > len(vals) {
			end = len(vals)
		}
		dst = b.Packer.Pack(dst, vals[off:end])
	}
	return dst
}

// Decode implements IntCodec.
func (b *Blockwise) Decode(src []byte) ([]int64, error) {
	return b.AppendDecode(nil, src)
}

// AppendDecode appends the decoded series to dst. On error it returns dst
// at its length on entry.
func (b *Blockwise) AppendDecode(dst []int64, src []byte) ([]int64, error) {
	n, src, err := ReadUvarint(src)
	if err != nil {
		return dst, fmt.Errorf("blockwise %s: %w", b.Packer.Name(), err)
	}
	if n > MaxBlockLen*64 {
		return dst, fmt.Errorf("blockwise %s: implausible count %d", b.Packer.Name(), n)
	}
	// The count is only a claim until blocks decode: reserve at most one
	// block's worth and let decoded blocks grow the rest.
	base := len(dst)
	out := slices.Grow(dst, int(min(n, MaxBlockLen)))
	for uint64(len(out)-base) < n {
		if _, err = BlockLen(src, int(n)-(len(out)-base)); err != nil {
			return dst, fmt.Errorf("blockwise %s: %w", b.Packer.Name(), err)
		}
		out, src, err = b.Packer.Unpack(src, out)
		if err != nil {
			return dst, fmt.Errorf("blockwise %s: %w", b.Packer.Name(), err)
		}
	}
	if got := uint64(len(out) - base); got != n {
		return dst, fmt.Errorf("blockwise %s: decoded %d values, header said %d", b.Packer.Name(), got, n)
	}
	return out, nil
}

// BlockLen reads the value count at the front of a packed block and refuses
// a block that declares more than lacking values: a column decoder passes
// what its column still lacks, so a block whose header claims more (which a
// width-0 block can do in a few bytes) is refused before Unpack sizes
// anything for it.
func BlockLen(src []byte, lacking int) (int, error) {
	n, _, err := ReadUvarint(src)
	if err != nil {
		return 0, fmt.Errorf("block count: %w", err)
	}
	if n > uint64(max(lacking, 0)) {
		return 0, fmt.Errorf("block of %d values where the column lacks %d", n, lacking)
	}
	return int(n), nil
}

// AppendUvarint appends v to dst as a byte-aligned base-128 varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// ReadUvarint consumes a varint from the front of src.
func ReadUvarint(src []byte) (uint64, []byte, error) {
	var v uint64
	var shift uint
	for i := 0; i < len(src); i++ {
		b := src[i]
		if shift == 63 && b > 1 {
			return 0, nil, fmt.Errorf("codec: varint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, src[i+1:], nil
		}
		shift += 7
		if shift > 63 {
			return 0, nil, fmt.Errorf("codec: varint overflow")
		}
	}
	return 0, nil, fmt.Errorf("codec: truncated varint")
}
