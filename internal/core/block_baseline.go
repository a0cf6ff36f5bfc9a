//go:build bosoldref

package core

import "bos/internal/bitio"

// This file preserves the pre-run-fusion block codec — the per-bit bitmap
// walk with a full per-value class slice, and the per-value WriteBit encoder
// — as a differential baseline. It is compiled only under the bosoldref tag,
// where FuzzDecodeBOS and the byte-identity tests pin the rewritten hot paths
// against it: same bytes in, same values (or same rejection) out, and same
// bytes produced for every plan. It is frozen code; do not optimize it.

// decodeBlockRef mirrors DecodeBlock but routes modeBOS through the old
// decoder. The header parser and the other modes share the live
// implementation (the rewrite did not touch them).
func decodeBlockRef(src []byte, out []int64) ([]int64, []byte, error) {
	r := bitio.NewReader(src)
	h, err := readHead(r)
	if err != nil {
		return out, nil, err
	}
	if h.mode != modeBOS {
		return DecodeBlock(src, out)
	}
	return decodeBOSRef(r, &h, out)
}

func decodeBOSRef(r *bitio.Reader, h *blockHead, out []int64) ([]int64, []byte, error) {
	n := h.n
	// First pass: the positional bitmap, one bit at a time, into a
	// per-value class slice. readHead bounded the body.
	data, pos := r.Data()
	classes := make([]class, n)
	declared := h.nl + h.nu
	outliers, upper := 0, 0
	for i := 0; i < n; {
		if pos&7 == 0 && i+8 <= n && data[pos>>3] == 0 {
			i += 8 // classes are zero-initialized to classCenter
			pos += 8
			continue
		}
		if data[pos>>3]>>(7-uint(pos&7))&1 == 0 {
			pos++
			i++
			continue
		}
		if outliers == declared {
			return out, nil, corruptn("bitmap marks more outliers than declared", int64(declared))
		}
		outliers++
		pos++
		if data[pos>>3]>>(7-uint(pos&7))&1 == 0 {
			classes[i] = classLower
		} else {
			classes[i] = classUpper
			upper++
		}
		pos++
		i++
	}
	if outliers != declared || upper != h.nu {
		return out, nil, corruptn("bitmap marks differ from declared outliers", int64(outliers-upper), int64(upper), int64(h.nl), int64(h.nu))
	}
	r.SetBitPos(pos)
	// Second pass: the values in original order.
	base := len(out)
	out = append(out, make([]int64, n)...)
	for i := 0; i < n; {
		if classes[i] == classCenter {
			j := i + 1
			for j < n && classes[j] == classCenter {
				j++
			}
			if err := r.ReadBulkInt64(out[base+i:base+j], h.beta, uint64(h.minXc)); err != nil {
				return out[:base], nil, corruptne("values at", int64(i), err)
			}
			i = j
			continue
		}
		var vbase uint64
		var width uint
		if classes[i] == classLower {
			vbase, width = uint64(h.xmin), h.alpha
		} else {
			vbase, width = uint64(h.minXu), h.gamma
		}
		if width == 0 {
			// Zero-width outlier class: every member equals the class
			// minimum; nothing was stored.
			out[base+i] = int64(vbase)
			i++
			continue
		}
		d, err := r.ReadBits(width)
		if err != nil {
			return out[:base], nil, corruptne("value", int64(i), err)
		}
		out[base+i] = int64(vbase + d)
		i++
	}
	return out, r.Rest(), nil
}

// encodeBOSRef is the pre-staging encoder: per-value classification into a
// full class slice and a WriteBit-at-a-time bitmap.
func encodeBOSRef(w *bitio.Writer, vals []int64, plan *Plan) {
	w.WriteBits(uint64(modeBOS), 8)
	w.WriteVarint(plan.Xmin)
	w.WriteUvarint(uint64(plan.NL))
	w.WriteUvarint(uint64(plan.NU))
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

	classes := make([]class, len(vals))
	for i, v := range vals {
		classes[i] = classOf(plan, v)
	}
	for _, c := range classes {
		switch c {
		case classCenter:
			w.WriteBit(0)
		case classLower:
			w.WriteBit(1)
			w.WriteBit(0)
		default:
			w.WriteBit(1)
			w.WriteBit(1)
		}
	}
	for i := 0; i < len(vals); {
		if classes[i] == classCenter {
			j := i + 1
			for j < len(vals) && classes[j] == classCenter {
				j++
			}
			w.WriteBulkInt64(vals[i:j], uint64(plan.MinXc), plan.Beta)
			i = j
			continue
		}
		if classes[i] == classLower {
			w.WriteBits(spread(plan.Xmin, vals[i]), plan.Alpha)
		} else {
			w.WriteBits(spread(plan.MinXu, vals[i]), plan.Gamma)
		}
		i++
	}
}
