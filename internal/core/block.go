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
// blocks capped at maxBlockLen (1<<22) values a position always fits. A
// Scratch is single-goroutine state: concurrent decodes each need their own
// (Packer.Unpack borrows one per call).
type Scratch struct {
	marks []uint32
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
	n64, err := r.ReadUvarint()
	if err != nil {
		return out, nil, corrupte("count", err)
	}
	if n64 > maxBlockLen {
		// Width-0 bodies pack arbitrarily many values into a few
		// header bytes, so the count can only be bounded by the
		// absolute block cap; beyond it is garbage.
		return out, nil, corruptn("implausible count", int64(n64))
	}
	n := int(n64)
	if n == 0 {
		return out, r.Rest(), nil
	}
	mode, err := r.ReadBits(8)
	if err != nil {
		return out, nil, corrupte("mode", err)
	}
	switch byte(mode) {
	case modePlain:
		return decodePlain(r, n, out)
	case modeBOS:
		return decodeBOS(r, n, out, sc)
	case modeParts:
		return decodeParts(r, n, out)
	default:
		return out, nil, corruptn("unknown mode", int64(mode))
	}
}

//bos:hotpath
func decodePlain(r *bitio.Reader, n int, out []int64) ([]int64, []byte, error) {
	xmin, err := r.ReadVarint()
	if err != nil {
		return out, nil, corrupte("xmin", err)
	}
	width, err := r.ReadBits(8)
	if err != nil {
		return out, nil, corrupte("width", err)
	}
	if width > 64 {
		return out, nil, corruptn("width", int64(width))
	}
	base := len(out)
	out = growInt64(out, n)
	if err := r.ReadBulkInt64(out[base:], uint(width), uint64(xmin)); err != nil {
		return out[:base], nil, corrupte("values", err)
	}
	return out, r.Rest(), nil
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

// decodeBOS is the run-fused block decoder. The bitmap pass walks the
// positional bitmap word-at-a-time through a bitio.RunReader — ZeroRun's
// LeadingZeros64 jumps over whole center gaps in one instruction — and emits
// only the compact outlier mark list into sc (no per-value class slice). The
// value pass then reads straight off the same window: the marks delimit the
// center runs, short runs decode through the gather kernels, long runs
// through the bulk jump tables, and outliers come out of the cached window
// without per-call Reader entry cost.
//
//bos:hotpath
func decodeBOS(r *bitio.Reader, n int, out []int64, sc *Scratch) ([]int64, []byte, error) {
	fail := func(what string, err error) ([]int64, []byte, error) {
		return out, nil, corrupte(what, err)
	}
	xmin, err := r.ReadVarint()
	if err != nil {
		return fail("xmin", err)
	}
	nl64, err := r.ReadUvarint()
	if err != nil {
		return fail("nl", err)
	}
	nu64, err := r.ReadUvarint()
	if err != nil {
		return fail("nu", err)
	}
	if nl64+nu64 > uint64(n) {
		return out, nil, corruptn("outlier counts exceed block size", int64(nl64), int64(nu64), int64(n))
	}
	offC, err := r.ReadUvarint()
	if err != nil {
		return fail("minXc", err)
	}
	offU, err := r.ReadUvarint()
	if err != nil {
		return fail("minXu", err)
	}
	widths, err := r.ReadBits(24)
	if err != nil {
		return fail("widths", err)
	}
	alpha := uint(widths >> 16 & 0xff)
	beta := uint(widths >> 8 & 0xff)
	gamma := uint(widths & 0xff)
	if alpha > 64 || beta > 64 || gamma > 64 {
		return out, nil, corruptn("widths", int64(alpha), int64(beta), int64(gamma))
	}
	minXc := int64(uint64(xmin) + offC)
	minXu := int64(uint64(xmin) + offU)

	// First pass: the positional bitmap. Its exact length (n + nl + nu
	// bits) is known from the header, so bounds are checked once up front;
	// after that ZeroRun and ReadBits cannot run out mid-bitmap.
	if data, pos := r.Data(); pos+n+int(nl64+nu64) > len(data)*8 {
		return fail("bitmap", bitio.ErrUnexpectedEOF)
	}
	declared := int(nl64 + nu64)
	marks := sc.marks[:0]
	rr := r.Run()
	for i := 0; i < n; {
		i += rr.ZeroRun(n - i)
		if i >= n {
			break
		}
		// The next bit is an outlier mark and consumes a second bit; the
		// bounds check above only covers the declared outlier count, so
		// more marks than declared is corruption (and would otherwise
		// overrun the section).
		if len(marks) == declared {
			return out, nil, corruptn("bitmap marks more outliers than declared", int64(declared))
		}
		mb, err := rr.ReadBits(2)
		if err != nil {
			return fail("bitmap", err)
		}
		marks = append(marks, uint32(i)<<1|uint32(mb&1))
		i++
	}
	sc.marks = marks
	// Second pass: the values in original order, continuing on the same
	// stream window. The marks delimit the maximal center runs directly;
	// outliers decode individually, and a zero-width outlier class stores
	// nothing — every member IS its class minimum.
	base := len(out)
	out = growInt64(out, n)
	vals := out[base:]
	prev := 0
	for _, m := range marks {
		p := int(m >> 1)
		if p > prev {
			if err := rr.ReadRunInt64(vals[prev:p], beta, uint64(minXc)); err != nil {
				return out[:base], nil, corruptne("values at", int64(prev), err)
			}
		}
		var vbase uint64
		var width uint
		if m&1 == 0 {
			vbase, width = uint64(xmin), alpha
		} else {
			vbase, width = uint64(minXu), gamma
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
	if prev < n {
		if err := rr.ReadRunInt64(vals[prev:], beta, uint64(minXc)); err != nil {
			return out[:base], nil, corruptne("values at", int64(prev), err)
		}
	}
	rr.Detach()
	return out, r.Rest(), nil
}
