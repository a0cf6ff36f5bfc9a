// Package pfor implements the patched frame-of-reference family of
// outlier-aware bit-packers that BOS is evaluated against (Section II-C):
//
//   - PFOR (Zukowski et al.): exceptions stored at full width, positions kept
//     as an in-slot linked list, with compulsory exceptions when the gap
//     between two real exceptions overflows a slot.
//   - NewPFOR (Yan et al.): every slot keeps the low b bits; exception high
//     bits and positions are stored separately. b is the 90th-percentile
//     width ("top 10% of values as outliers").
//   - OptPFOR (Yan et al.): the NewPFOR layout with b chosen by exact cost
//     minimization over the bit-width histogram.
//   - FastPFOR (Lemire & Boytsov): cost-minimized b with exception high bits
//     classified into per-width buckets.
//   - SimplePFOR (Lemire & Boytsov): cost-minimized b with exception
//     positions and high bits compressed by Simple-8b.
//
// All five share the frame-of-reference transform (subtract the block
// minimum) so they handle arbitrary int64 input, and all satisfy
// codec.Packer. Like the originals — and unlike BOS — they only ever separate
// upper outliers.
package pfor

import (
	"errors"
	"fmt"

	"bos/internal/bitio"
	"bos/internal/codec"
)

var errCorrupt = errors.New("pfor: corrupt block")

// frame holds the frame-of-reference view of one block.
type frame struct {
	xmin  int64
	u     []uint64 // vals[i] - xmin
	wmax  uint     // width of the largest offset
	hist  [65]int  // hist[w]: how many offsets have width exactly w
	cumLE [65]int  // cumLE[w]: how many offsets have width <= w
}

func newFrame(vals []int64) *frame {
	f := &frame{u: make([]uint64, len(vals))}
	if len(vals) == 0 {
		return f
	}
	xmin := vals[0]
	for _, v := range vals {
		if v < xmin {
			xmin = v
		}
	}
	f.xmin = xmin
	for i, v := range vals {
		u := uint64(v) - uint64(xmin)
		f.u[i] = u
		w := bitio.WidthOf(u)
		if w > f.wmax {
			f.wmax = w
		}
		f.hist[w]++
	}
	run := 0
	for w := 0; w <= 64; w++ {
		run += f.hist[w]
		f.cumLE[w] = run
	}
	return f
}

// exceptions returns how many offsets need more than b bits.
func (f *frame) exceptions(b uint) int { return len(f.u) - f.cumLE[b] }

// percentileWidth returns the smallest width covering at least the given
// fraction of the block (the NewPFOR "top 10% are outliers" heuristic uses
// frac = 0.9).
func (f *frame) percentileWidth(frac float64) uint {
	need := int(frac * float64(len(f.u)))
	for w := uint(0); w <= f.wmax; w++ {
		if f.cumLE[w] >= need {
			return w
		}
	}
	return f.wmax
}

// idxWidth is the bit-width used for exception positions in a block of n.
func idxWidth(n int) uint {
	if n <= 1 {
		return 1
	}
	return bitio.WidthOf(uint64(n - 1))
}

// sanityCount validates a decoded block size. A block of width-0 slots packs
// arbitrarily many values into a handful of header bytes, so the only safe
// bound is the absolute cap shared by all block decoders.
func sanityCount(n64 uint64, _ []byte) (int, error) {
	if n64 > codec.MaxBlockLen {
		return 0, fmt.Errorf("%w: implausible count %d", errCorrupt, n64)
	}
	return int(n64), nil
}

// Packer is the original PFOR of Zukowski et al. Exceptions keep their full
// offset width and their positions form a linked list threaded through the
// slots: each exception's slot stores the distance to the next exception
// minus one. When two exceptions are more than 2^b apart a compulsory
// exception is inserted to keep the link representable.
type Packer struct{}

// Name implements codec.Packer.
func (Packer) Name() string { return "PFOR" }

// Pack implements codec.Packer.
func (Packer) Pack(dst []byte, vals []int64) []byte {
	f := newFrame(vals)
	w := bitio.NewWriter(len(vals)*2 + 16)
	w.WriteUvarint(uint64(len(vals)))
	if len(vals) == 0 {
		return append(dst, w.Bytes()...)
	}
	b := f.percentileWidth(0.90)
	if f.exceptions(b) > 0 && b == 0 {
		b = 1
	}
	// Build the exception index list, inserting compulsory exceptions
	// wherever a gap exceeds the largest representable link 2^b.
	maxGap := 1 << 62
	if b < 62 {
		maxGap = 1 << b
	}
	var excIdx []int
	limit := uint64(1)
	if b < 64 {
		limit = uint64(1) << b
	} else {
		limit = 0 // b == 64: nothing is an exception
	}
	prev := -1
	for i, u := range f.u {
		isExc := b < 64 && u >= limit
		if !isExc {
			continue
		}
		for prev >= 0 && i-prev > maxGap {
			prev += maxGap
			excIdx = append(excIdx, prev) // compulsory
		}
		excIdx = append(excIdx, i)
		prev = i
	}
	w.WriteVarint(f.xmin)
	w.WriteBits(uint64(b), 8)
	w.WriteBits(uint64(f.wmax), 8)
	w.WriteUvarint(uint64(len(excIdx)))
	if len(excIdx) > 0 {
		w.WriteUvarint(uint64(excIdx[0]))
	}
	// Slots: center values store their offset, exception slots store the
	// link to the next exception.
	isExc := make([]bool, len(vals))
	next := make([]int, len(vals))
	for k, idx := range excIdx {
		isExc[idx] = true
		if k+1 < len(excIdx) {
			next[idx] = excIdx[k+1] - idx - 1
		}
	}
	slots := make([]uint64, len(vals))
	for i, u := range f.u {
		if isExc[i] {
			slots[i] = uint64(next[i])
		} else {
			slots[i] = u
		}
	}
	w.WriteBulk(slots, b)
	// Exception values at full offset width, in index order.
	for _, idx := range excIdx {
		w.WriteBits(f.u[idx], f.wmax)
	}
	return append(dst, w.Bytes()...)
}

// Unpack implements codec.Packer.
func (Packer) Unpack(src []byte, out []int64) ([]int64, []byte, error) {
	r := bitio.NewReader(src)
	n64, err := r.ReadUvarint()
	if err != nil {
		return out, nil, fmt.Errorf("%w: count: %v", errCorrupt, err)
	}
	n, err := sanityCount(n64, src)
	if err != nil {
		return out, nil, err
	}
	if n == 0 {
		return out, r.Rest(), nil
	}
	xmin, err := r.ReadVarint()
	if err != nil {
		return out, nil, fmt.Errorf("%w: xmin: %v", errCorrupt, err)
	}
	hdr, err := r.ReadBits(16)
	if err != nil {
		return out, nil, fmt.Errorf("%w: widths: %v", errCorrupt, err)
	}
	b, wmax := uint(hdr>>8), uint(hdr&0xff)
	if b > 64 || wmax > 64 {
		return out, nil, fmt.Errorf("%w: widths %d/%d", errCorrupt, b, wmax)
	}
	nExc64, err := r.ReadUvarint()
	if err != nil {
		return out, nil, fmt.Errorf("%w: nExc: %v", errCorrupt, err)
	}
	if nExc64 > uint64(n) {
		return out, nil, fmt.Errorf("%w: %d exceptions in block of %d", errCorrupt, nExc64, n)
	}
	nExc := int(nExc64)
	first := 0
	if nExc > 0 {
		f64, err := r.ReadUvarint()
		if err != nil {
			return out, nil, fmt.Errorf("%w: first exception: %v", errCorrupt, err)
		}
		if f64 >= uint64(n) {
			return out, nil, fmt.Errorf("%w: first exception %d out of range", errCorrupt, f64)
		}
		first = int(f64)
	}
	// Slots decode straight into out as xmin+slot; an exception's slot
	// holds its link, recovered below by subtracting xmin again.
	base := len(out)
	out = append(out, make([]int64, n)...)
	if err := r.ReadBulkInt64(out[base:], b, uint64(xmin)); err != nil {
		return out[:base], nil, fmt.Errorf("%w: slots: %v", errCorrupt, err)
	}
	idx := first
	for k := 0; k < nExc; k++ {
		exc, err := r.ReadBits(wmax)
		if err != nil {
			return out, nil, fmt.Errorf("%w: exception %d: %v", errCorrupt, k, err)
		}
		if idx >= n {
			return out, nil, fmt.Errorf("%w: exception chain escaped the block", errCorrupt)
		}
		// The encoder's links are gaps inside the block, so a link of n or
		// more is corrupt; rejecting it also keeps idx from overflowing.
		link := uint64(out[base+idx]) - uint64(xmin)
		if link >= uint64(n) {
			return out, nil, fmt.Errorf("%w: exception link %d out of range", errCorrupt, link)
		}
		out[base+idx] = int64(uint64(xmin) + exc)
		idx += int(link) + 1
	}
	return out, r.Rest(), nil
}
