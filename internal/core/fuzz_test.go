package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"bos/internal/bitio"
)

// probeBlock writes a 16-value BOS block header declaring nl lower and nu
// upper outliers at widths alpha, beta, gamma (all class minima 0), then the
// given bitmap bits (each written as a 2-bit mark if non-zero, a 0 bit
// otherwise) and no value bits, then the trailing bytes aa bb cc.
func probeBlock(nl, nu uint64, alpha, beta, gamma uint, bitmap []uint64) []byte {
	w := bitio.NewWriter(32)
	w.WriteUvarint(16)
	w.WriteBits(uint64(modeBOS), 8)
	w.WriteVarint(0)
	w.WriteUvarint(nl)
	w.WriteUvarint(nu)
	w.WriteUvarint(0)
	w.WriteUvarint(0)
	w.WriteBits(uint64(alpha)<<16|uint64(beta)<<8|uint64(gamma), 24)
	for _, m := range bitmap {
		if m == 0 {
			w.WriteBits(0, 1)
		} else {
			w.WriteBits(m, 2)
		}
	}
	return append(w.Bytes(), 0xaa, 0xbb, 0xcc)
}

// FuzzDecodeBlock drives the block decoder with arbitrary bytes: it must
// return an error or a value slice, never panic, and any block it accepts
// must re-encode deterministically through the round trip. Every other block
// read must agree with it on an accepted block: SkipBlock on the count and
// the remainder, FilterBlock on exactly the values a predicate keeps.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(EncodeBlock(nil, introSeries, SeparationValue))
	f.Add(EncodeBlock(nil, Fig1Series, SeparationMedian))
	f.Add(EncodeBlock(nil, []int64{7, 7, 7}, SeparationNone))
	f.Add(EncodeBlockParts(nil, Fig1Series, 5))
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x01})
	// Outlier counts whose uint64 sum wraps: nl = 2^64-1, nu = 1.
	f.Add(probeBlock(math.MaxUint64, 1, 0, 0, 0, make([]uint64, 16)))
	// One lower outlier declared, none marked.
	f.Add(probeBlock(1, 0, 0, 0, 0, make([]uint64, 16)))
	// One lower and one upper outlier declared, two lowers marked.
	f.Add(probeBlock(1, 1, 8, 0, 0, append([]uint64{0b10, 0b10}, make([]uint64, 14)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, rest, err := DecodeBlock(data, nil)
		if err != nil {
			return
		}
		n, skipRest, err := SkipBlock(data)
		if err != nil || n != len(vals) || len(skipRest) != len(rest) {
			t.Fatalf("SkipBlock n=%d rest=%x err=%v; DecodeBlock n=%d rest=%x", n, skipRest, err, len(vals), rest)
		}
		preds := [][2]int64{{math.MinInt64, math.MaxInt64}}
		if len(vals) > 0 {
			lo, hi := vals[0], vals[len(vals)/2]
			preds = append(preds, [2]int64{min(lo, hi), max(lo, hi)})
		}
		if info, _, err := InspectBlock(data); err == nil && info.Mode == "bos" {
			// The center band alone, and everything above it: one skips
			// the outlier planes, the other the center plane.
			if top, ok := bandMax(info.MinXc, info.Beta); ok {
				preds = append(preds, [2]int64{info.MinXc, top})
				if top < math.MaxInt64 {
					preds = append(preds, [2]int64{top + 1, math.MaxInt64})
				}
			}
		}
		for _, p := range preds {
			var got []int64
			fn, _, frest, err := FilterBlock(data, p[0], p[1], func(i int, v int64) {
				if v != vals[i] {
					t.Fatalf("filter [%d,%d] emitted %d at %d, decode has %d", p[0], p[1], v, i, vals[i])
				}
				got = append(got, int64(i))
			})
			if err != nil || fn != len(vals) || len(frest) != len(rest) {
				t.Fatalf("filter [%d,%d]: n=%d rest=%x err=%v; decode n=%d rest=%x", p[0], p[1], fn, frest, err, len(vals), rest)
			}
			var want []int64
			for i, v := range vals {
				if v >= p[0] && v <= p[1] {
					want = append(want, int64(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("filter [%d,%d] kept positions %v, want %v", p[0], p[1], got, want)
			}
		}
		// Accepted input: re-encoding the decoded values and decoding
		// again must give the same values (decode/encode stability).
		enc := EncodeBlock(nil, vals, SeparationBitWidth)
		again, rest2, err := DecodeBlock(enc, nil)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encode failed: %v", err)
		}
		if len(again) != len(vals) {
			t.Fatalf("re-encode changed length %d -> %d", len(vals), len(again))
		}
		for i := range vals {
			if again[i] != vals[i] {
				t.Fatalf("value %d drifted: %d -> %d", i, vals[i], again[i])
			}
		}
	})
}

// FuzzEncodeDecodeValues fuzzes the value domain: any byte string
// reinterpreted as int64s must round-trip through every separation.
func FuzzEncodeDecodeValues(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			b := data[i*8:]
			vals[i] = int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
				uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 |
				uint64(b[6])<<48 | uint64(b[7])<<56)
		}
		for _, sep := range []Separation{SeparationNone, SeparationBitWidth, SeparationMedian} {
			enc := EncodeBlock(nil, vals, sep)
			got, rest, err := DecodeBlock(enc, nil)
			if err != nil {
				t.Fatalf("%v: %v", sep, err)
			}
			if len(rest) != 0 || len(got) != len(vals) {
				t.Fatalf("%v: got %d values, %d rest", sep, len(got), len(rest))
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("%v: value %d: %d != %d", sep, i, got[i], vals[i])
				}
			}
		}
	})
}
