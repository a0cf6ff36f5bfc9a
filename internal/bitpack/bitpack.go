// Package bitpack implements plain frame-of-reference bit-packing (BP), the
// Definition 1 baseline: a block of values is stored as the minimum value
// followed by every value's offset from it at a single fixed bit-width
// ceil(log2(xmax - xmin + 1)).
//
// It is deliberately independent of the BOS implementation in internal/core
// so that the baseline measured in the experiments shares no code with the
// system under test.
package bitpack

import (
	"errors"
	"fmt"
	"slices"

	"bos/internal/bitio"
	"bos/internal/codec"
)

// Packer is the plain bit-packing operator. It satisfies codec.Packer.
type Packer struct{}

// Name implements codec.Packer.
func (Packer) Name() string { return "BP" }

// Pack implements codec.Packer: varint count, zigzag-varint minimum, a width
// byte, then count fixed-width offsets. The header is byte-aligned, so it is
// appended a byte at a time and the offsets are packed straight into dst.
func (Packer) Pack(dst []byte, vals []int64) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(vals)))
	if len(vals) == 0 {
		return dst
	}
	xmin, xmax := vals[0], vals[0]
	for _, v := range vals {
		if v < xmin {
			xmin = v
		}
		if v > xmax {
			xmax = v
		}
	}
	width := bitio.WidthOf(uint64(xmax) - uint64(xmin))
	dst = codec.AppendUvarint(dst, bitio.ZigZag(xmin))
	dst = append(dst, byte(width))
	// Room for the offsets and the 8 bytes the bulk writer's last store may
	// reach past them, so it packs within dst's array.
	dst = slices.Grow(dst, (len(vals)*int(width)+7)/8+8)
	// Fused frame-of-reference pack: the offsets uint64(v)-uint64(xmin)
	// are computed inside the bulk writer, no scratch slice.
	w := bitio.NewWriterOn(dst)
	w.WriteBulkInt64(vals, uint64(xmin), width)
	return w.Bytes()
}

var errCorrupt = errors.New("bitpack: corrupt block")

// Unpack implements codec.Packer. The header is byte-aligned, as Pack
// appends it, so it is read a byte at a time and only the offsets go
// through a bit reader.
func (Packer) Unpack(src []byte, out []int64) ([]int64, []byte, error) {
	n64, rest, err := codec.ReadUvarint(src)
	if err != nil {
		return out, nil, fmt.Errorf("%w: count: %v", errCorrupt, err)
	}
	// A width-0 (constant) block packs any count into a few header bytes,
	// so the count is bounded only by the shared absolute cap.
	if n64 > codec.MaxBlockLen {
		return out, nil, fmt.Errorf("%w: implausible count %d", errCorrupt, n64)
	}
	n := int(n64)
	if n == 0 {
		return out, rest, nil
	}
	zmin, rest, err := codec.ReadUvarint(rest)
	if err != nil {
		return out, nil, fmt.Errorf("%w: xmin: %v", errCorrupt, err)
	}
	if len(rest) == 0 {
		return out, nil, fmt.Errorf("%w: width: %v", errCorrupt, bitio.ErrUnexpectedEOF)
	}
	width := rest[0]
	if width > 64 {
		return out, nil, fmt.Errorf("%w: width %d", errCorrupt, width)
	}
	r := bitio.NewReader(rest[1:])
	base := len(out)
	out = append(out, make([]int64, n)...)
	if err := r.ReadBulkInt64(out[base:], uint(width), uint64(bitio.UnZigZag(zmin))); err != nil {
		return out[:base], nil, fmt.Errorf("%w: values: %v", errCorrupt, err)
	}
	return out, r.Rest(), nil
}
