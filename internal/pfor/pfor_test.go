package pfor

import (
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"bos/internal/bitpack"
	"bos/internal/codec"
)

var packers = []codec.Packer{Packer{}, NewPFOR{}, OptPFOR{}, FastPFOR{}, SimplePFOR{}}

func roundTrip(t *testing.T, p codec.Packer, vals []int64) []byte {
	t.Helper()
	enc := p.Pack(nil, vals)
	got, rest, err := p.Unpack(enc, nil)
	if err != nil {
		t.Fatalf("%s: decode: %v", p.Name(), err)
	}
	if len(rest) != 0 {
		t.Fatalf("%s: %d bytes left over", p.Name(), len(rest))
	}
	if len(got) != len(vals) {
		t.Fatalf("%s: decoded %d values want %d", p.Name(), len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%s: value %d: got %d want %d", p.Name(), i, got[i], vals[i])
		}
	}
	return enc
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{42},
		{math.MinInt64},
		{math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{7, 7, 7, 7},
		{3, 2, 4, 5, 3, 2, 0, 8},
		{-1000, 5, 6, 7, 5, 6, 7, 1000000},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1 << 50}, // single huge outlier
	}
	for _, vals := range cases {
		for _, p := range packers {
			roundTrip(t, p, vals)
		}
	}
}

func genSeries(rng *rand.Rand) []int64 {
	n := rng.Intn(300) + 1
	vals := make([]int64, n)
	switch rng.Intn(5) {
	case 0:
		for i := range vals {
			vals[i] = int64(rng.NormFloat64() * 30)
		}
	case 1:
		for i := range vals {
			if rng.Float64() < 0.08 {
				vals[i] = rng.Int63n(1 << 45)
			} else {
				vals[i] = int64(rng.Intn(64))
			}
		}
	case 2:
		for i := range vals {
			vals[i] = int64(rng.Uint64())
		}
	case 3:
		c := rng.Int63()
		for i := range vals {
			vals[i] = c
		}
	default:
		for i := range vals {
			vals[i] = -rng.Int63n(1 << 40)
		}
	}
	return vals
}

func TestRoundTripRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 400; iter++ {
		vals := genSeries(rng)
		for _, p := range packers {
			roundTrip(t, p, vals)
		}
	}
}

func TestCompulsoryExceptions(t *testing.T) {
	// Two far-apart exceptions with tiny b force PFOR's compulsory
	// exceptions: the gap (1000) cannot be linked in ~2 bits.
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(i % 3)
	}
	vals[3] = 1 << 30
	vals[1020] = 1 << 30
	roundTrip(t, Packer{}, vals)
}

func TestExceptionHeavyBlocks(t *testing.T) {
	// ~40% exceptions stress every patch path.
	rng := rand.New(rand.NewSource(31))
	vals := make([]int64, 512)
	for i := range vals {
		if rng.Float64() < 0.4 {
			vals[i] = rng.Int63n(1 << 50)
		} else {
			vals[i] = rng.Int63n(8)
		}
	}
	for _, p := range packers {
		roundTrip(t, p, vals)
	}
}

func TestBeatsBPOnOutliers(t *testing.T) {
	// The PFOR family's raison d'etre: a few upper outliers must not blow
	// up the block the way they do under plain bit-packing.
	rng := rand.New(rand.NewSource(32))
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(rng.Intn(16)) // 4 bits
	}
	for i := 0; i < 20; i++ {
		vals[rng.Intn(1024)] = 1 << 40
	}
	bp := bitpack.Packer{}.Pack(nil, vals)
	for _, p := range packers {
		enc := p.Pack(nil, vals)
		if len(enc) >= len(bp)/2 {
			t.Errorf("%s: %d bytes vs BP %d — expected at least 2x win", p.Name(), len(enc), len(bp))
		}
	}
}

func TestLowerOutliersHurtPFOR(t *testing.T) {
	// The paper's motivation for BOS: the PFOR family cannot separate
	// *lower* outliers, so a few tiny values inflate the center width.
	// Frame-of-reference packing anchors at xmin, so a handful of values
	// far below the mass forces a wide b for everyone.
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = 1<<20 + int64(i%16) // tight band, 4-bit spread
	}
	for i := 0; i < 8; i++ {
		vals[i*128] = int64(i) // lower outliers near zero
	}
	tight := make([]int64, 1024)
	for i := range tight {
		tight[i] = 1<<20 + int64(i%16)
	}
	for _, p := range packers {
		dirty := len(p.Pack(nil, vals))
		clean := len(p.Pack(nil, tight))
		if dirty < clean*2 {
			t.Errorf("%s unexpectedly resistant to lower outliers: %d vs %d bytes — is it separating them?",
				p.Name(), dirty, clean)
		}
	}
}

func TestCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	vals := genSeries(rng)
	for _, p := range packers {
		base := p.Pack(nil, vals)
		for i := 0; i < 1500; i++ {
			cor := append([]byte(nil), base...)
			for k := 0; k < 1+rng.Intn(3); k++ {
				cor[rng.Intn(len(cor))] ^= byte(1 << rng.Intn(8))
			}
			cor = cor[:rng.Intn(len(cor)+1)]
			p.Unpack(cor, nil)
		}
	}
}

// TestCorruptLinkRejected decodes classic PFOR blocks whose exception link
// points outside the block. A link of 2^63 once made the chain index
// negative and panicked; one of 2^64-2 steps back one slot, onto the values
// of an earlier block already in out. Both must be errCorrupt, with the
// earlier values left alone. Each stream is n=2, xmin=0, b=64, wmax=0, two
// exceptions, first=0, then the two 64-bit slots.
func TestCorruptLinkRejected(t *testing.T) {
	for _, stream := range []string{
		"020040000200" + "8000000000000000" + "0000000000000000",
		"020040000200" + "fffffffffffffffe" + "0000000000000000",
	} {
		src, err := hex.DecodeString(stream)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Packer{}.Unpack(src, []int64{42})
		if !errors.Is(err, errCorrupt) {
			t.Errorf("%s: err = %v, want errCorrupt", stream, err)
		}
		if len(got) == 0 || got[0] != 42 {
			t.Errorf("%s: earlier value overwritten: %v", stream, got)
		}
	}
}

func TestOptNeverWorseThanNew(t *testing.T) {
	// OptPFOR's exact minimization must not lose to NewPFOR's percentile
	// heuristic by more than rounding slack.
	rng := rand.New(rand.NewSource(34))
	for iter := 0; iter < 200; iter++ {
		vals := genSeries(rng)
		opt := len(OptPFOR{}.Pack(nil, vals))
		nw := len(NewPFOR{}.Pack(nil, vals))
		if opt > nw+2 {
			t.Fatalf("iter %d: OptPFOR %d bytes > NewPFOR %d", iter, opt, nw)
		}
	}
}

func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	vals := make([]int64, 1024)
	for i := range vals {
		if rng.Float64() < 0.05 {
			vals[i] = rng.Int63n(1 << 30)
		} else {
			vals[i] = int64(rng.Intn(256))
		}
	}
	for _, p := range packers {
		b.Run(p.Name(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = p.Pack(buf[:0], vals)
			}
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	vals := make([]int64, 1024)
	for i := range vals {
		if rng.Float64() < 0.05 {
			vals[i] = rng.Int63n(1 << 30)
		} else {
			vals[i] = int64(rng.Intn(256))
		}
	}
	for _, p := range packers {
		enc := p.Pack(nil, vals)
		b.Run(p.Name(), func(b *testing.B) {
			out := make([]int64, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				out, _, err = p.Unpack(enc, out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
