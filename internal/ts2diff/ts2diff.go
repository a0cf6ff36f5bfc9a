// Package ts2diff implements the TS2DIFF delta encoding used by Apache IoTDB
// (Xiao et al., VLDB 2022), parameterized by a bit-packing operator: a column
// is stored as its consecutive differences, the first one taken from zero,
// so only the column's first value is stored, as that first delta. The
// configured codec.Packer packs the deltas block by block, and a later block
// continues the deltas of the one before it (the packer's frame-of-reference
// subtraction plays the role of TS2DIFF's min-delta subtraction). This is the
// TS2DIFF+BP / TS2DIFF+PFOR / TS2DIFF+BOS family of the evaluation.
package ts2diff

import (
	"fmt"
	"slices"

	"bos/internal/codec"
)

// Codec is delta encoding over a pluggable packer.
type Codec struct {
	Packer    codec.Packer
	BlockSize int
}

// New returns a TS2DIFF codec over p (block size defaults to
// codec.DefaultBlockSize).
func New(p codec.Packer, blockSize int) *Codec {
	if blockSize <= 0 {
		blockSize = codec.DefaultBlockSize
	}
	return &Codec{Packer: p, BlockSize: blockSize}
}

// Name implements codec.IntCodec.
func (c *Codec) Name() string { return "TS2DIFF+" + c.Packer.Name() }

// Deltas rewrites vals as first-order differences (wrapping int64
// arithmetic, so the full value range round-trips). The first element is the
// difference from zero, i.e. the first value itself.
func Deltas(vals []int64) []int64 {
	out := make([]int64, len(vals))
	prev := int64(0)
	for i, v := range vals {
		out[i] = int64(uint64(v) - uint64(prev))
		prev = v
	}
	return out
}

// Undeltas inverts Deltas in place and returns its argument.
func Undeltas(deltas []int64) []int64 {
	prev := int64(0)
	for i, d := range deltas {
		prev = int64(uint64(prev) + uint64(d))
		deltas[i] = prev
	}
	return deltas
}

// Encode implements codec.IntCodec.
func (c *Codec) Encode(dst []byte, vals []int64) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(vals)))
	deltas := Deltas(vals)
	for off := 0; off < len(deltas); off += c.BlockSize {
		end := off + c.BlockSize
		if end > len(deltas) {
			end = len(deltas)
		}
		dst = c.Packer.Pack(dst, deltas[off:end])
	}
	return dst
}

// Decode implements codec.IntCodec.
func (c *Codec) Decode(src []byte) ([]int64, error) {
	return c.AppendDecode(nil, src)
}

// AppendDecode appends the decoded series to dst. On error it returns dst
// at its length on entry.
func (c *Codec) AppendDecode(dst []int64, src []byte) ([]int64, error) {
	n64, src, err := codec.ReadUvarint(src)
	if err != nil {
		return dst, fmt.Errorf("ts2diff: count: %w", err)
	}
	if n64 > uint64(codec.MaxBlockLen)*64 {
		return dst, fmt.Errorf("ts2diff: implausible count %d", n64)
	}
	n := int(n64)
	// Reserve at most one block's worth: decoded blocks grow the rest.
	base := len(dst)
	out := slices.Grow(dst, min(n, codec.MaxBlockLen))
	for len(out)-base < n {
		if _, err = codec.BlockLen(src, n-(len(out)-base)); err != nil {
			return dst, fmt.Errorf("ts2diff: %w", err)
		}
		before := len(out)
		out, src, err = c.Packer.Unpack(src, out)
		if err != nil {
			return dst, fmt.Errorf("ts2diff: %w", err)
		}
		if len(out) == before {
			return dst, fmt.Errorf("ts2diff: empty block before %d/%d values", len(out)-base, n)
		}
	}
	if len(out)-base != n {
		return dst, fmt.Errorf("ts2diff: decoded %d values, want %d", len(out)-base, n)
	}
	Undeltas(out[base:])
	return out, nil
}
