package bitio

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestBulkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		width := uint(rng.Intn(65))
		n := rng.Intn(200)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
			if width < 64 {
				vals[i] &= 1<<width - 1
			}
		}
		lead := uint(rng.Intn(8)) // random misalignment
		base := rng.Uint64()

		scalar := NewWriter(64)
		scalar.WriteBits(1, lead)
		for _, v := range vals {
			scalar.WriteBits(v, width)
		}
		bulk := NewWriter(64)
		bulk.WriteBits(1, lead)
		bulk.WriteBulk(vals, width)

		sb, bb := scalar.Bytes(), bulk.Bytes()
		if len(sb) != len(bb) {
			t.Fatalf("iter %d: lengths %d vs %d", iter, len(sb), len(bb))
		}
		for i := range sb {
			if sb[i] != bb[i] {
				t.Fatalf("iter %d (width %d, lead %d): byte %d: %02x vs %02x",
					iter, width, lead, i, sb[i], bb[i])
			}
		}

		// The fused bulk read must recover base+value from the stream.
		r := NewReader(bb)
		if _, err := r.ReadBits(lead); err != nil {
			t.Fatal(err)
		}
		got := make([]int64, n)
		if err := r.ReadBulkInt64(got, width, base); err != nil {
			t.Fatalf("iter %d: ReadBulkInt64: %v", iter, err)
		}
		for i := range vals {
			if want := int64(base + vals[i]); got[i] != want {
				t.Fatalf("iter %d: value %d: got %d want %d", iter, i, got[i], want)
			}
		}
		if want := int(lead) + n*int(width); r.BitPos() != want {
			t.Fatalf("iter %d: BitPos %d want %d", iter, r.BitPos(), want)
		}
	}
}

// TestWriteBulkGolden pins the exact stream bytes for a known input so a
// regression in the word-store path cannot hide behind a matching scalar bug.
func TestWriteBulkGolden(t *testing.T) {
	w := NewWriter(16)
	w.WriteBulk([]uint64{0b101, 0b010, 0b111, 0b001}, 3)
	// 101 010 111 001 -> 10101011 1001'0000 (final byte zero-padded)
	got := w.Bytes()
	want := []byte{0xab, 0x90}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %x want %x", got, want)
	}

	w = NewWriter(16)
	w.WriteBits(1, 1) // misaligned start
	w.WriteBulk([]uint64{0x3ff, 0x001}, 10)
	// 1 1111111111 0000000001 -> 11111111 11100000 00001'000
	got = w.Bytes()
	want = []byte{0xff, 0xe0, 0x08}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %x want %x", got, want)
		}
	}
}

// TestWriteBulkMidStream interleaves scalar and bulk writes at every
// alignment and verifies the stream stays byte-identical to all-scalar.
func TestWriteBulkMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		scalar, bulk := NewWriter(64), NewWriter(64)
		for seg := 0; seg < 4; seg++ {
			width := uint(1 + rng.Intn(56))
			n := rng.Intn(40)
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & (1<<width - 1)
			}
			for _, v := range vals {
				scalar.WriteBits(v, width)
			}
			bulk.WriteBulk(vals, width)
			// A few stray bits between segments shift the alignment.
			stray := uint(rng.Intn(8))
			scalar.WriteBits(0b1011, stray)
			bulk.WriteBits(0b1011, stray)
		}
		sb, bb := scalar.Bytes(), bulk.Bytes()
		if len(sb) != len(bb) {
			t.Fatalf("iter %d: lengths %d vs %d", iter, len(sb), len(bb))
		}
		for i := range sb {
			if sb[i] != bb[i] {
				t.Fatalf("iter %d: byte %d: %02x vs %02x", iter, i, sb[i], bb[i])
			}
		}
	}
}

// TestBulkReadPastEnd pins the all-or-nothing contract of ReadBulkInt64: a
// read the stream is too short for returns ErrUnexpectedEOF, writes nothing
// to out and leaves the position where it was, so the bits that are there
// still read normally.
func TestBulkReadPastEnd(t *testing.T) {
	// 16 bits of stream, 7-bit values: exactly 2 fit, the third does not.
	r := NewReader([]byte{0xff, 0xff})
	out := []int64{99, 99, 99}
	if err := r.ReadBulkInt64(out, 7, 1); err != ErrUnexpectedEOF {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
	for i, v := range out {
		if v != 99 {
			t.Errorf("out[%d] overwritten: %d", i, v)
		}
	}
	if got := r.BitPos(); got != 0 {
		t.Errorf("BitPos = %d, want 0", got)
	}
	// The two values that fit, then the remaining 2 bits, read normally.
	if err := r.ReadBulkInt64(out[:2], 7, 1); err != nil || out[0] != 0x80 || out[1] != 0x80 {
		t.Errorf("prefix read = %v, %v; want [128 128], nil", out[:2], err)
	}
	if got, err := r.ReadBits(2); err != nil || got != 3 {
		t.Errorf("tail read: %d, %v", got, err)
	}
}

// TestBulkReadPastEndKernelAligned is the same contract through the kernel
// path: byte-aligned start, enough values for blocks, stream cut short.
func TestBulkReadPastEndKernelAligned(t *testing.T) {
	w := NewWriter(256)
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i) & 0x1f
	}
	w.WriteBulk(vals, 5)
	data := w.Bytes() // 500 bits -> 63 bytes: 100 values, then padding
	r := NewReader(data)
	out := make([]int64, 120)
	for i := range out {
		out[i] = -1
	}
	if err := r.ReadBulkInt64(out, 5, 0); err != ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	for i, v := range out {
		if v != -1 {
			t.Fatalf("out[%d] overwritten: %d", i, v)
		}
	}
	if got := r.BitPos(); got != 0 {
		t.Fatalf("BitPos = %d, want 0", got)
	}
	// Every value that fits still decodes once the read is sized to it.
	fit := out[:len(data)*8/5]
	if err := r.ReadBulkInt64(fit, 5, 0); err != nil {
		t.Fatalf("fitting read: %v", err)
	}
	for i := range vals {
		if fit[i] != int64(vals[i]) {
			t.Fatalf("value %d: got %d want %d", i, fit[i], vals[i])
		}
	}
	if got := r.BitPos(); got != len(fit)*5 {
		t.Fatalf("BitPos = %d, want %d", got, len(fit)*5)
	}
}

func TestBulkZeroWidth(t *testing.T) {
	r := NewReader(nil)
	out := []int64{7, 7}
	if err := r.ReadBulkInt64(out, 0, 5); err != nil {
		t.Fatalf("ReadBulkInt64: %v", err)
	}
	if out[0] != 5 || out[1] != 5 {
		t.Errorf("out = %v, want [5 5]", out)
	}
	if got := r.BitPos(); got != 0 {
		t.Errorf("BitPos = %d, want 0", got)
	}
}

// benchWidths is the sweep the kernel benchmarks run over; EXPERIMENTS.md,
// "Decode-kernel microbenchmarks", records the scalar-vs-kernel ratio for
// each.
var benchWidths = []uint{1, 4, 7, 8, 12, 16, 20, 32, 48, 64}

func benchVals(width uint, n int) []uint64 {
	vals := make([]uint64, n)
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	for i := range vals {
		vals[i] = (uint64(i)*0x9e3779b97f4a7c15 + 1) & mask
	}
	return vals
}

func BenchmarkWriteBulk(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.WriteBulk(vals, width)
			}
		})
	}
}

// BenchmarkWriteBulkUnaligned starts the stream 3 bits in — the shape of the
// encodeBOS center plane, which sits after the positional bitmap — so it
// exercises the staged unaligned write path rather than the aligned kernels.
func BenchmarkWriteBulkUnaligned(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.WriteBits(5, 3)
				w.WriteBulk(vals, width)
			}
		})
	}
}

// BenchmarkWriteBulkUnalignedScalar is the same shape through the pre-kernel
// accumulator (the "before" column for the staged write path).
func BenchmarkWriteBulkUnalignedScalar(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.WriteBits(5, 3)
				w.writeBulkScalar(vals, width)
			}
		})
	}
}

// BenchmarkWriteBulkScalar measures the pre-kernel accumulator path on the
// same inputs (the "scalar" column in EXPERIMENTS.md, "Decode-kernel
// microbenchmarks").
func BenchmarkWriteBulkScalar(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.writeBulkScalar(vals, width)
			}
		})
	}
}

func BenchmarkReadBulkInt64(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			w.WriteBulk(vals, width)
			data := w.Bytes()
			out := make([]int64, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(data)
				if err := r.ReadBulkInt64(out, width, 12345); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadBulkInt64Unaligned starts the stream 3 bits in — the shape of
// every BOS inlier plane, which sits after the positional bitmap — so it
// exercises the realign-staging kernel path rather than the direct one.
func BenchmarkReadBulkInt64Unaligned(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			w.WriteBits(5, 3)
			w.WriteBulk(vals, width)
			data := w.Bytes()
			out := make([]int64, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(data)
				if _, err := r.ReadBits(3); err != nil {
					b.Fatal(err)
				}
				if err := r.ReadBulkInt64(out, width, 12345); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadBulkInt64Scalar(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%02d", width), func(b *testing.B) {
			vals := benchVals(width, 1024)
			w := NewWriter(1 << 14)
			w.WriteBulk(vals, width)
			data := w.Bytes()
			out := make([]int64, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewReader(data)
				if err := r.readBulkInt64Scalar(out, width, 12345); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
