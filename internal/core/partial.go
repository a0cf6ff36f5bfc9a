package core

import "bos/internal/bitio"

// This file gives compressed-domain access to encoded blocks, the kernels
// under internal/pushdown's tiered chunk evaluator. Both read the header
// through readHead, like every other block read, and FilterBlock walks the
// bitmap with readMarks, the mark pass full decode uses, so they accept and
// end a block exactly where DecodeBlock does:
//
//   - SkipBlock finds a block boundary from its header alone — the body's
//     bit length is fully determined by the counts and widths, so skipping
//     costs O(header) instead of O(n) decode.
//   - FilterBlock evaluates a value predicate against the per-class bands
//     first: a class whose representable range [base, base+2^width) cannot
//     intersect [minV, maxV] is skipped without touching its bits. For
//     predicates inside the inlier band this reads the center plane only;
//     for predicates outside it, only the outlier planes.
//
// Parts-mode blocks (Figure 14) interleave Huffman-tagged sections whose
// length the header alone does not determine, so both fall back to full
// decode there. A position range needs no kernel of its own: the caller
// skips the blocks before it and decodes the blocks it overlaps whole. None
// of these run on the bulk decode hot path, so they are deliberately not
// //bos:hotpath.

// SkipBlock advances past one block from the front of src without decoding
// its values and returns the block's value count plus the unread remainder.
// Plain and BOS bodies are skipped arithmetically from the header; parts
// blocks fall back to a full decode to find the boundary. For every block
// DecodeBlock accepts, SkipBlock returns the same count and remainder.
func SkipBlock(src []byte) (int, []byte, error) {
	r := bitio.NewReader(src)
	h, err := readHead(r)
	if err != nil {
		return 0, nil, err
	}
	if h.mode == modeParts {
		_, rest, err := decodeParts(r, h.n, nil)
		if err != nil {
			return 0, nil, err
		}
		return h.n, rest, nil
	}
	_, pos := r.Data()
	r.SetBitPos(pos + h.bodyBits()) // readHead bounded the body
	return h.n, r.Rest(), nil
}

// bandMax returns the largest value a class with minimum `base` and width w
// can represent (base + 2^w - 1) and whether that bound is meaningful — a
// width of 64 or an int64 wraparound makes the band unbounded, which callers
// must treat as "may contain anything".
func bandMax(base int64, w uint) (int64, bool) {
	if w >= 64 {
		return 0, false
	}
	hi := int64(uint64(base) + (uint64(1) << w) - 1)
	return hi, hi >= base
}

// bandDisjoint reports whether a class with the given minimum and width is
// provably disjoint from [minV, maxV].
func bandDisjoint(base int64, w uint, minV, maxV int64) bool {
	hi, ok := bandMax(base, w)
	return ok && (hi < minV || base > maxV)
}

// FilterBlock decodes one block from the front of src and calls emit(i, v),
// in position order, for each value v at block position i with
// minV <= v <= maxV. Classes whose representable band is provably disjoint
// from the predicate are bit-skipped without decoding — the inlier-plane (or
// outlier-plane-only) scan. It returns the block's value count, whether any
// present class was skipped that way, and the unread remainder.
func FilterBlock(src []byte, minV, maxV int64, emit func(i int, v int64)) (int, bool, []byte, error) {
	r := bitio.NewReader(src)
	h, err := readHead(r)
	if err != nil {
		return 0, false, nil, err
	}
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	// A class is skipped only when it has members; the header's counts are
	// exact once the mark pass has accepted the bitmap.
	skipC := h.n > h.nl+h.nu && bandDisjoint(h.minXc, h.beta, minV, maxV)
	skipL := h.nl > 0 && bandDisjoint(h.xmin, h.alpha, minV, maxV)
	skipU := h.nu > 0 && bandDisjoint(h.minXu, h.gamma, minV, maxV)
	if h.mode == modeParts || !(skipC || skipL || skipU) {
		// Nothing to skip: the run-fused full decode, then the predicate.
		vals, rest, err := DecodeBlockScratch(src, sc.vals[:0], sc)
		if err != nil {
			return 0, false, nil, err
		}
		sc.vals = vals[:0]
		for i, v := range vals {
			if v >= minV && v <= maxV {
				emit(i, v)
			}
		}
		return h.n, false, rest, nil
	}
	marks := sc.marks[:0]
	if h.mode == modeBOS {
		rr := r.Run()
		marks, err = readMarks(&rr, &h, marks)
		sc.marks = marks
		if err != nil {
			return 0, false, nil, err
		}
		rr.Detach()
	}
	// The marks delimit the center runs. A skipped value costs an addition
	// to the bit offset, a kept one a seek and a read; readHead bounded the
	// body, so no read can run out.
	_, off := r.Data()
	center := func(lo, hi int) error {
		k := hi - lo
		if skipC {
			off += k * int(h.beta)
			return nil
		}
		if cap(sc.vals) < k {
			sc.vals = make([]int64, k)
		}
		vals := sc.vals[:k]
		r.SetBitPos(off)
		if err := r.ReadBulkInt64(vals, h.beta, uint64(h.minXc)); err != nil {
			return corruptne("values at", int64(lo), err)
		}
		off += k * int(h.beta)
		for j, v := range vals {
			if v >= minV && v <= maxV {
				emit(lo+j, v)
			}
		}
		return nil
	}
	prev := 0
	for _, m := range marks {
		p := int(m >> 1)
		if p > prev {
			if err := center(prev, p); err != nil {
				return 0, false, nil, err
			}
		}
		skip, vbase, width := skipL, uint64(h.xmin), h.alpha
		if m&1 != 0 {
			skip, vbase, width = skipU, uint64(h.minXu), h.gamma
		}
		if !skip {
			r.SetBitPos(off)
			d, err := r.ReadBits(width)
			if err != nil {
				return 0, false, nil, corruptne("value", int64(p), err)
			}
			if v := int64(vbase + d); v >= minV && v <= maxV {
				emit(p, v)
			}
		}
		off += int(width)
		prev = p + 1
	}
	if prev < h.n {
		if err := center(prev, h.n); err != nil {
			return 0, false, nil, err
		}
	}
	r.SetBitPos(off)
	return h.n, true, r.Rest(), nil
}
