package bitpack

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bos/internal/bitio"
)

func TestRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{math.MinInt64, math.MaxInt64},
		{5, 5, 5},
		{3, 2, 4, 5, 3, 2, 0, 8},
		{-100, 100, 0},
	}
	var p Packer
	for _, vals := range cases {
		enc := p.Pack(nil, vals)
		got, rest, err := p.Unpack(enc, nil)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if len(rest) != 0 || len(got) != len(vals) {
			t.Fatalf("%v: got %d values, %d rest", vals, len(got), len(rest))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("value %d: got %d want %d", i, got[i], vals[i])
			}
		}
	}
}

// TestPackMatchesBitWriter pins BP's bytes: Pack, which appends to the
// caller's slice, writes the stream a bit writer builds field by field.
func TestPackMatchesBitWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100, 1024} {
		for _, span := range []int64{1, 2, 256, 1 << 40, math.MaxInt64} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(span) - span/2
			}
			if n > 1 && span == math.MaxInt64 {
				vals[0], vals[1] = math.MinInt64, math.MaxInt64
			}
			w := bitio.NewWriter(0)
			w.WriteUvarint(uint64(n))
			if n > 0 {
				xmin, xmax := vals[0], vals[0]
				for _, v := range vals {
					xmin, xmax = min(xmin, v), max(xmax, v)
				}
				width := bitio.WidthOf(uint64(xmax) - uint64(xmin))
				w.WriteVarint(xmin)
				w.WriteBits(uint64(width), 8)
				for _, v := range vals {
					w.WriteBits(uint64(v)-uint64(xmin), width)
				}
			}
			want := append([]byte{0xa5}, w.Bytes()...)
			if got := (Packer{}).Pack([]byte{0xa5}, vals); !bytes.Equal(got, want) {
				t.Errorf("n=%d span=%d: Pack wrote\n%x\nwant\n%x", n, span, got, want)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	var p Packer
	f := func(vals []int64) bool {
		enc := p.Pack(nil, vals)
		got, rest, err := p.Unpack(enc, nil)
		if err != nil || len(rest) != 0 || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSizeMatchesDefinition1(t *testing.T) {
	// 1024 values in [0, 255]: 8 bits each plus a small header.
	vals := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = int64(rng.Intn(256))
	}
	var p Packer
	enc := p.Pack(nil, vals)
	if len(enc) < 1024 || len(enc) > 1024+16 {
		t.Errorf("encoded %d bytes, want ~1024", len(enc))
	}
}

func TestCorruptionNeverPanics(t *testing.T) {
	var p Packer
	rng := rand.New(rand.NewSource(2))
	base := p.Pack(nil, []int64{1, 2, 3, 1000, -7})
	for i := 0; i < 1000; i++ {
		cor := append([]byte(nil), base...)
		cor[rng.Intn(len(cor))] ^= byte(1 << rng.Intn(8))
		cor = cor[:rng.Intn(len(cor)+1)]
		p.Unpack(cor, nil)
	}
}

func TestOutlierAmplification(t *testing.T) {
	// The motivating pathology: one huge outlier forces every value wide.
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i % 8) // 3 bits
	}
	var p Packer
	small := len(p.Pack(nil, vals))
	vals[0] = 1 << 40 // 41 bits
	big := len(p.Pack(nil, vals))
	if big < small*10 {
		t.Errorf("outlier did not amplify BP: %d -> %d bytes", small, big)
	}
}
