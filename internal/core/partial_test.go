package core

import (
	"math"
	"math/rand"
	"testing"
)

// genBlockEncodings encodes vals under every separation strategy plus the
// k-parts generalization, returning the encoded blobs.
func genBlockEncodings(vals []int64) [][]byte {
	var encs [][]byte
	for _, sep := range allSeparations {
		encs = append(encs, EncodeBlock(nil, vals, sep))
	}
	for _, k := range []int{1, 3, 5} {
		encs = append(encs, EncodeBlockParts(nil, vals, k))
	}
	return encs
}

func TestSkipBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for iter := 0; iter < 200; iter++ {
		vals := genSeries(rng)
		for _, enc := range genBlockEncodings(vals) {
			// A trailing payload proves the reported remainder is exact.
			enc = append(enc, 0xAB, 0xCD)
			want, wantRest, err := DecodeBlock(enc, nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			n, rest, err := SkipBlock(enc)
			if err != nil {
				t.Fatalf("skip: %v", err)
			}
			if n != len(want) {
				t.Fatalf("skip count %d, decode produced %d", n, len(want))
			}
			if len(rest) != len(wantRest) {
				t.Fatalf("skip rest %d bytes, decode rest %d", len(rest), len(wantRest))
			}
		}
	}
}

func TestSkipBlockEmpty(t *testing.T) {
	enc := EncodeBlock(nil, nil, SeparationMedian)
	enc = append(enc, 0x7F)
	n, rest, err := SkipBlock(enc)
	if err != nil || n != 0 || len(rest) != 1 {
		t.Fatalf("empty block: n=%d rest=%d err=%v", n, len(rest), err)
	}
}

// predicates worth probing: inside the center band, below everything, above
// everything, one-sided, full int64 range, empty, single exact value.
func genPredicates(rng *rand.Rand, vals []int64) [][2]int64 {
	preds := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{0, 0},
		{1, -1}, // empty range
		{math.MinInt64, -1},
		{1, math.MaxInt64},
	}
	if len(vals) > 0 {
		v := vals[rng.Intn(len(vals))]
		preds = append(preds, [2]int64{v, v})
		lo, hi := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
		if lo > hi {
			lo, hi = hi, lo
		}
		preds = append(preds, [2]int64{lo, hi})
	}
	preds = append(preds, [2]int64{int64(rng.NormFloat64() * 30), int64(rng.NormFloat64()*30) + 100})
	return preds
}

func TestFilterBlockEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for iter := 0; iter < 150; iter++ {
		vals := genSeries(rng)
		for _, enc := range genBlockEncodings(vals) {
			enc = append(enc, 0x99)
			want, wantRest, err := DecodeBlock(enc, nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, pred := range genPredicates(rng, vals) {
				minV, maxV := pred[0], pred[1]
				type hit struct {
					i int
					v int64
				}
				var got []hit
				n, _, rest, err := FilterBlock(enc, minV, maxV, func(i int, v int64) {
					got = append(got, hit{i, v})
				})
				if err != nil {
					t.Fatalf("filter [%d,%d]: %v", minV, maxV, err)
				}
				if n != len(want) {
					t.Fatalf("filter n=%d, want %d", n, len(want))
				}
				if len(rest) != len(wantRest) {
					t.Fatalf("filter rest %d bytes, want %d", len(rest), len(wantRest))
				}
				var ref []hit
				for i, v := range want {
					if v >= minV && v <= maxV {
						ref = append(ref, hit{i, v})
					}
				}
				if len(got) != len(ref) {
					t.Fatalf("filter [%d,%d]: %d hits, want %d", minV, maxV, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("filter [%d,%d] hit %d: got %+v want %+v", minV, maxV, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestFilterBlockSkipsPlanes pins the point of the kernel: a predicate strictly
// inside the center band of a separated block must report the outlier planes
// skipped, and a predicate outside every band must skip without emitting.
func TestFilterBlockSkipsPlanes(t *testing.T) {
	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i % 50) // center band [0, 49]
	}
	vals[7] = -1 << 30 // lower outlier
	vals[99] = 1 << 40 // upper outlier
	enc := EncodeBlock(nil, vals, SeparationBitWidth)
	info, _, err := InspectBlock(enc)
	if err != nil || info.Mode != "bos" {
		t.Fatalf("expected a bos block, got %+v err=%v", info, err)
	}
	hits := 0
	_, skipped, _, err := FilterBlock(enc, 10, 20, func(i int, v int64) { hits++ })
	if err != nil {
		t.Fatalf("filter: %v", err)
	}
	if !skipped {
		t.Fatalf("center-band predicate did not skip the outlier planes")
	}
	if hits == 0 {
		t.Fatalf("center-band predicate emitted nothing")
	}
	_, skipped, _, err = FilterBlock(enc, 1<<50, 1<<51, func(i int, v int64) {
		t.Fatalf("disjoint predicate emitted %d", v)
	})
	if err != nil {
		t.Fatalf("filter: %v", err)
	}
	if !skipped {
		t.Fatalf("disjoint predicate did not skip")
	}
}

// TestPartialCorruptRobustness: truncations and bit flips must error or
// succeed, never panic, across both partial kernels.
func TestPartialCorruptRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 40; iter++ {
		vals := genSeries(rng)
		for _, enc := range genBlockEncodings(vals) {
			for cut := 0; cut <= len(enc); cut += 1 + rng.Intn(4) {
				probePartial(enc[:cut])
			}
			mut := append([]byte(nil), enc...)
			for flips := 0; flips < 8; flips++ {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
				probePartial(mut)
			}
		}
	}
}

func probePartial(src []byte) {
	_, _, _ = SkipBlock(src)
	_, _, _, _ = FilterBlock(src, -100, 100, func(int, int64) {})
}

// TestSkipBlockChain walks a multi-block stream by header arithmetic alone
// and must land exactly where full decode lands.
func TestSkipBlockChain(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	var stream []byte
	var total int
	for b := 0; b < 10; b++ {
		vals := genSeries(rng)
		total += len(vals)
		stream = EncodeBlock(stream, vals, allSeparations[b%len(allSeparations)])
	}
	seen := 0
	for rest := stream; len(rest) > 0; {
		n, next, err := SkipBlock(rest)
		if err != nil {
			t.Fatalf("skip after %d values: %v", seen, err)
		}
		seen += n
		rest = next
	}
	if seen != total {
		t.Fatalf("skipped %d values, stream holds %d", seen, total)
	}
}
