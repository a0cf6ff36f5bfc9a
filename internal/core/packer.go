package core

import (
	"fmt"
	"sync"
)

// Packer adapts a separation strategy to the codec.Packer contract, making
// BOS a drop-in replacement for the bit-packing operator inside RLE, SPRINTZ,
// TS2DIFF and any other block codec. A Packer holds no mutable state and is
// safe for concurrent use. One instance is commonly shared: a tsfile.Reader
// decodes every chunk of its file, from every querying goroutine, through
// one, and bosserver hands a single packer to every file it opens.
type Packer struct {
	Sep Separation
}

// scratchPool lends each Unpack call its own decode scratch, so
// steady-state block decode does not allocate while concurrent Unpack calls
// on one Packer never share a mark list.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// NewPacker returns a Packer using the given separation strategy.
func NewPacker(sep Separation) *Packer { return &Packer{Sep: sep} }

// Name implements codec.Packer.
func (p *Packer) Name() string { return p.Sep.String() }

// Pack implements codec.Packer.
func (p *Packer) Pack(dst []byte, vals []int64) []byte {
	return EncodeBlock(dst, vals, p.Sep)
}

// Unpack implements codec.Packer.
func (p *Packer) Unpack(src []byte, out []int64) ([]int64, []byte, error) {
	sc := scratchPool.Get().(*Scratch)
	out, rest, err := DecodeBlockScratch(src, out, sc)
	scratchPool.Put(sc)
	return out, rest, err
}

// PartsPacker packs blocks with the k-parts generalization of Figure 14.
type PartsPacker struct {
	K int
}

// Name implements codec.Packer.
func (p *PartsPacker) Name() string { return fmt.Sprintf("BOS-P%d", p.K) }

// Pack implements codec.Packer.
func (p *PartsPacker) Pack(dst []byte, vals []int64) []byte {
	return EncodeBlockParts(dst, vals, p.K)
}

// Unpack implements codec.Packer.
func (p *PartsPacker) Unpack(src []byte, out []int64) ([]int64, []byte, error) {
	return DecodeBlock(src, out)
}
