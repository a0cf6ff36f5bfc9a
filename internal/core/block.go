package core

import (
	"errors"

	"bos/internal/bitio"
)

// Block stream modes (first byte after the count).
const (
	modePlain byte = 0 // plain bit-packing body
	modeBOS   byte = 1 // three-class outlier separation (Figure 7)
	modeParts byte = 2 // generalized k-part separation (Figure 14)
)

// errCorrupt wraps decode failures with a stable prefix.
var errCorrupt = errors.New("core: corrupt block")

// maxBlockLen caps the declared value count of a block; it mirrors
// codec.MaxBlockLen (core avoids the import to stay dependency-free).
const maxBlockLen = 1 << 22

// EncodeBlock packs vals into dst using the given separation strategy and
// returns the extended slice. The encoder always compares the separated plan
// against plain bit-packing and emits whichever is smaller, so a BOS block is
// never larger than the BP block plus the shared header.
//
// The layout follows Figure 7 of the paper: block metadata (counts, minima,
// bit-widths alpha/beta/gamma), the positional bitmap of Figure 2 ('0'
// center, '10' lower outlier, '11' upper outlier), then all values in
// original order, each stored relative to its class minimum at its class
// width.
func EncodeBlock(dst []byte, vals []int64, sep Separation) []byte {
	plan := PlanFor(vals, sep)
	return EncodeBlockPlan(dst, vals, &plan)
}

// PlanFor runs the planner selected by sep over vals.
func PlanFor(vals []int64, sep Separation) Plan {
	switch sep {
	case SeparationValue:
		return PlanValue(vals)
	case SeparationBitWidth:
		return PlanBitWidth(vals)
	case SeparationMedian:
		return PlanMedian(vals)
	case SeparationUpperOnly:
		return PlanUpperOnly(vals)
	default:
		return plainPlan(vals)
	}
}

// EncodeBlockPlan packs vals according to an already-computed plan.
func EncodeBlockPlan(dst []byte, vals []int64, plan *Plan) []byte {
	w := bitio.NewWriter(len(vals)*2 + 16)
	w.WriteUvarint(uint64(len(vals)))
	if len(vals) == 0 {
		return append(dst, w.Bytes()...)
	}
	if !plan.Separated {
		encodePlain(w, vals, plan)
	} else {
		encodeBOS(w, vals, plan)
	}
	return append(dst, w.Bytes()...)
}

//bos:hotpath
func encodePlain(w *bitio.Writer, vals []int64, plan *Plan) {
	w.WriteBits(uint64(modePlain), 8)
	w.WriteVarint(plan.Xmin)
	width := bitio.WidthOf(spread(plan.Xmin, plan.Xmax))
	w.WriteBits(uint64(width), 8)
	// Fused frame-of-reference pack: WriteBulkInt64 computes
	// spread(plan.Xmin, v) per value itself, sparing the offsets scratch.
	w.WriteBulkInt64(vals, uint64(plan.Xmin), width)
}

//bos:hotpath
func encodeBOS(w *bitio.Writer, vals []int64, plan *Plan) {
	w.WriteBits(uint64(modeBOS), 8)
	w.WriteVarint(plan.Xmin)
	w.WriteUvarint(uint64(plan.NL))
	w.WriteUvarint(uint64(plan.NU))
	// Class minima as non-negative offsets from xmin.
	if plan.NC() > 0 {
		w.WriteUvarint(spread(plan.Xmin, plan.MinXc))
	} else {
		w.WriteUvarint(0)
	}
	if plan.NU > 0 {
		w.WriteUvarint(spread(plan.Xmin, plan.MinXu))
	} else {
		w.WriteUvarint(0)
	}
	w.WriteBits(uint64(plan.Alpha), 8)
	w.WriteBits(uint64(plan.Beta), 8)
	w.WriteBits(uint64(plan.Gamma), 8)

	// Classify once into a compact outlier mark list: position<<1 | class
	// bit, center positions implicit. At realistic outlier rates this is
	// orders of magnitude smaller than the per-value class slice it
	// replaces, and it hands both the bitmap and the value section their
	// run boundaries directly. Positions fit easily: decoders cap blocks
	// at maxBlockLen (1<<22) values.
	marks := make([]uint32, 0, plan.NL+plan.NU)
	for i, v := range vals {
		if c := classOf(plan, v); c != classCenter {
			marks = append(marks, uint32(i)<<1|uint32(c-classLower))
		}
	}
	// Positional bitmap (Figure 2), in original order: center gaps emit as
	// up-to-64-bit zero words, each outlier as its two-bit mark. The bit
	// sequence — and therefore every byte — is identical to the per-value
	// WriteBit form this replaces.
	prev := 0
	for _, m := range marks {
		for g := int(m>>1) - prev; g > 0; {
			c := g
			if c > 64 {
				c = 64
			}
			w.WriteBits(0, uint(c))
			g -= c
		}
		w.WriteBits(0b10|uint64(m&1), 2)
		prev = int(m>>1) + 1
	}
	for g := len(vals) - prev; g > 0; {
		c := g
		if c > 64 {
			c = 64
		}
		w.WriteBits(0, uint(c))
		g -= c
	}
	// Values in original order, relative to their class minimum. The runs
	// of center values between consecutive marks go through the fused bulk
	// writer (it computes spread(plan.MinXc, v) per value itself, and
	// stages blocks through the aligned kernels even mid-byte).
	prev = 0
	for _, m := range marks {
		p := int(m >> 1)
		if p > prev {
			w.WriteBulkInt64(vals[prev:p], uint64(plan.MinXc), plan.Beta)
		}
		if m&1 == 0 {
			w.WriteBits(spread(plan.Xmin, vals[p]), plan.Alpha)
		} else {
			w.WriteBits(spread(plan.MinXu, vals[p]), plan.Gamma)
		}
		prev = p + 1
	}
	if prev < len(vals) {
		w.WriteBulkInt64(vals[prev:], uint64(plan.MinXc), plan.Beta)
	}
}

type class int

const (
	classCenter class = iota
	classLower
	classUpper
)

//bos:hotpath
func classOf(plan *Plan, v int64) class {
	if plan.NL > 0 && v <= plan.MaxXl {
		return classLower
	}
	if plan.NU > 0 && v >= plan.MinXu {
		return classUpper
	}
	return classCenter
}

// Scratch carries reusable decode state across DecodeBlockScratch calls so
// steady-state block decode allocates nothing. marks is the compact outlier
// list the bitmap pass produces (position<<1 | class bit, 1 = upper); with
// blocks capped at maxBlockLen (1<<22) values a position always fits. vals
// holds the values FilterBlock decodes before it filters them. A Scratch is
// single-goroutine state: concurrent decodes each need their own
// (Packer.Unpack and FilterBlock borrow one per call).
type Scratch struct {
	marks []uint32
	vals  []int64
}

// blockHead is the parsed header of one block (Figure 7). A plain block
// reads as a BOS block with no outliers and no bitmap: its one width is beta
// and its minimum is both xmin and minXc. A parts block stops after the mode
// byte; decodeParts reads the rest of its header.
type blockHead struct {
	n                  int
	mode               byte
	xmin, minXc, minXu int64
	nl, nu             int
	alpha, beta, gamma uint
}

// bodyBits is the exact bit length of a plain or BOS body: the positional
// bitmap (one bit per value plus a second bit per outlier) and the value
// section. Bounded by maxBlockLen * 66 bits, so it cannot overflow int.
func (h *blockHead) bodyBits() int {
	bits := (h.n-h.nl-h.nu)*int(h.beta) + h.nl*int(h.alpha) + h.nu*int(h.gamma)
	if h.mode == modeBOS {
		bits += h.n + h.nl + h.nu
	}
	return bits
}

// readHead reads and validates the header of the block at r: the count, the
// mode and the plain or BOS fields. Every block read starts here, so all of
// them reject the same malformed headers, including a plain or BOS body
// longer than the buffer.
//
//bos:hotpath
func readHead(r *bitio.Reader) (blockHead, error) {
	var h blockHead
	n64, err := r.ReadUvarint()
	if err != nil {
		return h, corrupte("count", err)
	}
	if n64 > maxBlockLen {
		// Width-0 bodies pack arbitrarily many values into a few
		// header bytes, so the count can only be bounded by the
		// absolute block cap; beyond it is garbage.
		return h, corruptn("implausible count", int64(n64))
	}
	h.n = int(n64)
	if h.n == 0 {
		return h, nil // an empty plain block: no mode byte, no body
	}
	mode, err := r.ReadBits(8)
	if err != nil {
		return h, corrupte("mode", err)
	}
	h.mode = byte(mode)
	switch h.mode {
	case modeParts:
		return h, nil
	case modePlain:
		if h.xmin, err = r.ReadVarint(); err != nil {
			return h, corrupte("xmin", err)
		}
		width, err := r.ReadBits(8)
		if err != nil {
			return h, corrupte("width", err)
		}
		if width > 64 {
			return h, corruptn("width", int64(width))
		}
		h.minXc, h.beta = h.xmin, uint(width)
	case modeBOS:
		if h.xmin, err = r.ReadVarint(); err != nil {
			return h, corrupte("xmin", err)
		}
		nl64, err := r.ReadUvarint()
		if err != nil {
			return h, corrupte("nl", err)
		}
		nu64, err := r.ReadUvarint()
		if err != nil {
			return h, corrupte("nu", err)
		}
		// Checked one at a time before the sum, so a wrapping uint64 sum
		// cannot sneak absurd counts past the bound.
		if nl64 > n64 || nu64 > n64 || nl64+nu64 > n64 {
			return h, corruptn("outlier counts exceed block size", int64(nl64), int64(nu64), int64(n64))
		}
		h.nl, h.nu = int(nl64), int(nu64)
		offC, err := r.ReadUvarint()
		if err != nil {
			return h, corrupte("minXc", err)
		}
		offU, err := r.ReadUvarint()
		if err != nil {
			return h, corrupte("minXu", err)
		}
		h.minXc = int64(uint64(h.xmin) + offC)
		h.minXu = int64(uint64(h.xmin) + offU)
		widths, err := r.ReadBits(24)
		if err != nil {
			return h, corrupte("widths", err)
		}
		h.alpha = uint(widths >> 16 & 0xff)
		h.beta = uint(widths >> 8 & 0xff)
		h.gamma = uint(widths & 0xff)
		if h.alpha > 64 || h.beta > 64 || h.gamma > 64 {
			return h, corruptn("widths", int64(h.alpha), int64(h.beta), int64(h.gamma))
		}
	default:
		return h, corruptn("unknown mode", int64(mode))
	}
	// The body's exact length is known from the header, so it is bounded
	// once here; after that no bitmap or value read can run out mid-body.
	if data, pos := r.Data(); pos+h.bodyBits() > len(data)*8 {
		return h, corrupte("body", bitio.ErrUnexpectedEOF)
	}
	return h, nil
}

// readMarks is the bitmap pass of a BOS block: it walks the positional
// bitmap word-at-a-time through a bitio.RunReader — ZeroRun's LeadingZeros64
// jumps over whole center gaps in one instruction — and returns only the
// compact outlier mark list, reusing marks' storage. It leaves rr at the
// value section. A bitmap whose lower or upper marks differ in number from
// the header's nl and nu is corrupt: the value section's length follows from
// those counts, so a disagreement would end the block in one place for a
// full decode and in another for SkipBlock.
//
//bos:hotpath
func readMarks(rr *bitio.RunReader, h *blockHead, marks []uint32) ([]uint32, error) {
	declared := h.nl + h.nu
	marks = marks[:0]
	upper := 0
	for i := 0; i < h.n; {
		i += rr.ZeroRun(h.n - i)
		if i >= h.n {
			break
		}
		// The next bit is an outlier mark and consumes a second bit;
		// readHead's bound covers only the declared outliers, so one
		// more would overrun the bitmap.
		if len(marks) == declared {
			return marks, corruptn("bitmap marks more outliers than declared", int64(declared))
		}
		mb, err := rr.ReadBits(2)
		if err != nil {
			return marks, corrupte("bitmap", err)
		}
		upper += int(mb & 1)
		marks = append(marks, uint32(i)<<1|uint32(mb&1))
		i++
	}
	if len(marks) != declared || upper != h.nu {
		return marks, corruptn("bitmap marks differ from declared outliers", int64(len(marks)-upper), int64(upper), int64(h.nl), int64(h.nu))
	}
	return marks, nil
}

// DecodeBlock decodes one block from the front of src, appends the values to
// out, and returns the grown slice and the unread remainder. It never panics
// on malformed input. Loop callers should prefer DecodeBlockScratch, which
// reuses the bitmap scratch across blocks.
func DecodeBlock(src []byte, out []int64) ([]int64, []byte, error) {
	var sc Scratch
	return DecodeBlockScratch(src, out, &sc)
}

// DecodeBlockScratch is DecodeBlock with caller-owned scratch.
//
//bos:hotpath
func DecodeBlockScratch(src []byte, out []int64, sc *Scratch) ([]int64, []byte, error) {
	r := bitio.NewReader(src)
	h, err := readHead(r)
	if err != nil {
		return out, nil, err
	}
	if h.mode == modeParts {
		return decodeParts(r, h.n, out)
	}
	return decodeBOS(r, &h, out, sc)
}

// growInt64 extends s by n elements without the temporary slice that
// `append(s, make([]int64, n)...)` materializes when capacity is short, and
// without touching memory at all when it is not. The extension is NOT zeroed:
// callers must either write every element or truncate back on error (all
// decode paths do both).
//
//bos:hotpath
func growInt64(s []int64, n int) []int64 {
	if cap(s)-len(s) >= n {
		return s[:len(s)+n]
	}
	ns := make([]int64, len(s)+n, len(s)+n+len(s)/2)
	copy(ns, s)
	return ns
}

// decodeBOS is the run-fused decoder of plain and BOS bodies. readMarks
// turns the bitmap into the outlier mark list in sc (a plain body has no
// bitmap and no marks). The value pass then reads straight off the same
// stream window: the marks delimit the center runs, short runs decode
// through the gather kernels, long runs through the bulk jump tables, and
// outliers come out of the cached window without per-call Reader entry cost.
//
//bos:hotpath
func decodeBOS(r *bitio.Reader, h *blockHead, out []int64, sc *Scratch) ([]int64, []byte, error) {
	rr := r.Run()
	marks := sc.marks[:0]
	if h.mode == modeBOS {
		var err error
		marks, err = readMarks(&rr, h, marks)
		sc.marks = marks
		if err != nil {
			return out, nil, err
		}
	}
	// The values in original order, continuing on the same stream window.
	// A zero-width outlier class stores nothing: every member IS its class
	// minimum.
	base := len(out)
	out = growInt64(out, h.n)
	vals := out[base:]
	prev := 0
	for _, m := range marks {
		p := int(m >> 1)
		if p > prev {
			if err := rr.ReadRunInt64(vals[prev:p], h.beta, uint64(h.minXc)); err != nil {
				return out[:base], nil, corruptne("values at", int64(prev), err)
			}
		}
		vbase, width := uint64(h.xmin), h.alpha
		if m&1 != 0 {
			vbase, width = uint64(h.minXu), h.gamma
		}
		if width == 0 {
			vals[p] = int64(vbase)
		} else {
			d, err := rr.ReadBits(width)
			if err != nil {
				return out[:base], nil, corruptne("value", int64(p), err)
			}
			vals[p] = int64(vbase + d)
		}
		prev = p + 1
	}
	if prev < h.n {
		if err := rr.ReadRunInt64(vals[prev:], h.beta, uint64(h.minXc)); err != nil {
			return out[:base], nil, corruptne("values at", int64(prev), err)
		}
	}
	rr.Detach()
	return out, r.Rest(), nil
}
