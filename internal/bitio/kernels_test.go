package bitio

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// Differential tests for the generated kernels: for every width 1..64 and a
// ladder of lengths around the 64-value block and 8-value tail boundaries,
// the kernel-dispatched front doors must produce bit-exact streams (pack)
// compared to the pre-existing scalar path and exact values (unpack), at
// every starting alignment. This is the byte-identity guarantee: a stream
// written before the kernels existed decodes identically, and a stream
// written through the kernels is indistinguishable from one written by
// WriteBits.

var diffLengths = []int{0, 1, 7, 8, 63, 64, 65, 1000}

// diffValues returns deterministic test vectors for one width/length:
// random values, plus the boundary patterns (all zeros, all ones, alternating
// min/max) that stress carry propagation across word seams.
func diffValues(rng *rand.Rand, width uint, n int) [][]uint64 {
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	random := make([]uint64, n)
	unmasked := make([]uint64, n) // garbage above the width: pack must mask
	ones := make([]uint64, n)
	alt := make([]uint64, n)
	for i := range random {
		v := rng.Uint64()
		random[i] = v & mask
		unmasked[i] = v
		ones[i] = mask
		if i%2 == 0 {
			alt[i] = mask
		}
	}
	return [][]uint64{random, unmasked, ones, alt, make([]uint64, n)}
}

func TestKernelsDifferentialExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for width := uint(1); width <= 64; width++ {
		for _, n := range diffLengths {
			for vi, vals := range diffValues(rng, width, n) {
				// Every byte phase: the staged write path merges aligned
				// kernel output into the stream at any pending-bit offset,
				// so all seven misalignments must be byte-identical too.
				for lead := uint(0); lead < 8; lead++ {
					// Pack: scalar baseline vs kernel front door.
					scalar := NewWriter(64)
					scalar.WriteBits(1, lead)
					scalar.writeBulkScalarForTest(vals, width)
					kernel := NewWriter(64)
					kernel.WriteBits(1, lead)
					kernel.WriteBulk(vals, width)
					sb, kb := scalar.Bytes(), kernel.Bytes()
					if !bytes.Equal(sb, kb) {
						t.Fatalf("width %d n %d vec %d lead %d: pack streams differ", width, n, vi, lead)
					}

					// Unpack: the kernel front door must recover every
					// value, fused with the base add.
					mask := ^uint64(0)
					if width < 64 {
						mask = 1<<width - 1
					}
					r := NewReader(kb)
					if _, err := r.ReadBits(lead); err != nil {
						t.Fatal(err)
					}
					const base = uint64(1) << 33
					got64 := make([]int64, n)
					if err := r.ReadBulkInt64(got64, width, base); err != nil {
						t.Fatalf("width %d n %d: ReadBulkInt64: %v", width, n, err)
					}
					for i := range vals {
						if want := int64(base + vals[i]&mask); got64[i] != want {
							t.Fatalf("width %d n %d vec %d lead %d: int64 value %d: got %d want %d",
								width, n, vi, lead, i, got64[i], want)
						}
					}

					// RunReader: the same stream read run-fused, split into
					// varying short chunks so both the gather kernels and the
					// above-threshold bulk delegation fire, with resume
					// points between chunks.
					r = NewReader(kb)
					if _, err := r.ReadBits(lead); err != nil {
						t.Fatal(err)
					}
					rr := r.Run()
					gotRun := make([]int64, n)
					for lo := 0; lo < n; {
						step := 3 + lo%9 // 3..11 straddles kernelTail
						if lo+step > n {
							step = n - lo
						}
						if err := rr.ReadRunInt64(gotRun[lo:lo+step], width, base); err != nil {
							t.Fatalf("width %d n %d vec %d lead %d: ReadRunInt64 at %d: %v",
								width, n, vi, lead, lo, err)
						}
						lo += step
					}
					rr.Detach()
					for i := range vals {
						if gotRun[i] != got64[i] {
							t.Fatalf("width %d n %d vec %d lead %d: run value %d: got %d want %d",
								width, n, vi, lead, i, gotRun[i], got64[i])
						}
					}
					if want := int(lead) + n*int(width); r.BitPos() != want {
						t.Fatalf("width %d n %d vec %d lead %d: run BitPos %d want %d",
							width, n, vi, lead, r.BitPos(), want)
					}
				}
			}
		}
	}
}

// writeBulkScalarForTest routes through the pre-kernel path while keeping
// the width>64 guard the public front door applies.
func (w *Writer) writeBulkScalarForTest(vals []uint64, width uint) {
	if width == 0 || len(vals) == 0 {
		return
	}
	w.writeBulkScalar(vals, width)
}

// TestWriteBulkInt64MatchesManual pins the fused encode loop against the
// open-coded offset computation it replaced in the block encoders.
func TestWriteBulkInt64MatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 200; iter++ {
		width := uint(rng.Intn(65))
		n := rng.Intn(200)
		base := rng.Int63() - rng.Int63()
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = base + int64(rng.Uint64()&(1<<uint(rng.Intn(32))-1))
		}
		lead := uint(rng.Intn(8))

		manual := NewWriter(64)
		manual.WriteBits(1, lead)
		offsets := make([]uint64, n)
		for i, v := range vals {
			offsets[i] = uint64(v) - uint64(base)
		}
		manual.WriteBulk(offsets, width)

		fused := NewWriter(64)
		fused.WriteBits(1, lead)
		fused.WriteBulkInt64(vals, uint64(base), width)

		if !bytes.Equal(manual.Bytes(), fused.Bytes()) {
			t.Fatalf("iter %d (width %d, lead %d): fused stream differs", iter, width, lead)
		}
	}
}

// FuzzBulkKernels cross-checks the kernel front doors against the scalar
// paths on arbitrary inputs: pack byte-identity, unpack value-identity, and
// ReadBulkInt64's all-or-nothing rejection of a short stream.
func FuzzBulkKernels(f *testing.F) {
	f.Add(uint(5), uint(0), int64(77), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint(13), uint(3), int64(-5), bytes.Repeat([]byte{0xff}, 200))
	f.Add(uint(64), uint(7), int64(0), bytes.Repeat([]byte{0xa5}, 64))
	f.Fuzz(func(t *testing.T, width, lead uint, base int64, raw []byte) {
		width %= 65
		lead %= 8
		// Derive values from the raw bytes, 8 per value.
		n := len(raw) / 8
		if n > 4096 {
			n = 4096
		}
		vals := make([]uint64, n)
		for i := range vals {
			for j := 0; j < 8; j++ {
				vals[i] = vals[i]<<8 | uint64(raw[i*8+j])
			}
		}

		// Pack differential.
		scalar := NewWriter(64)
		scalar.WriteBits(1, lead)
		if width > 0 && n > 0 {
			scalar.writeBulkScalar(vals, width)
		}
		kernel := NewWriter(64)
		kernel.WriteBits(1, lead)
		kernel.WriteBulk(vals, width)
		if !bytes.Equal(scalar.Bytes(), kernel.Bytes()) {
			t.Fatalf("pack streams differ (width %d lead %d n %d)", width, lead, n)
		}

		// Unpack differential over the raw bytes themselves (arbitrary
		// stream, not necessarily one we wrote): ReadBulkInt64 against
		// per-value ReadBits. A request for more values than the stream
		// holds must fail as a whole, leaving out and the position as they
		// were; out starts as the complement of the reference so a partial
		// decode cannot go unnoticed.
		if width > 0 {
			r1 := NewReader(raw)
			r2 := NewReader(raw)
			if _, err := r1.ReadBits(lead); err == nil {
				if _, err := r2.ReadBits(lead); err != nil {
					t.Fatal(err)
				}
				want := make([]int64, n+3)
				var errRef error
				for i := range want {
					v, err := r2.ReadBits(width)
					if err != nil {
						errRef = err
						break
					}
					want[i] = int64(uint64(base) + v)
				}
				out := make([]int64, len(want))
				for i := range out {
					out[i] = ^want[i]
				}
				err := r1.ReadBulkInt64(out, width, uint64(base))
				switch {
				case (err == nil) != (errRef == nil):
					t.Fatalf("rejection: kernel %v scalar %v (width %d lead %d n %d)", err, errRef, width, lead, n)
				case err == nil:
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("value %d: kernel %#x scalar %#x", i, out[i], want[i])
						}
					}
					if r1.BitPos() != r2.BitPos() {
						t.Fatalf("position: kernel %d scalar %d", r1.BitPos(), r2.BitPos())
					}
				default:
					if err != ErrUnexpectedEOF {
						t.Fatalf("short stream: err %v, want ErrUnexpectedEOF", err)
					}
					for i := range want {
						if out[i] != ^want[i] {
							t.Fatalf("rejected read wrote out[%d] (width %d lead %d)", i, width, lead)
						}
					}
					if r1.BitPos() != int(lead) {
						t.Fatalf("rejected read moved the position: %d, want %d", r1.BitPos(), lead)
					}
				}
			}
		}

		// Fused int64 write differential.
		fused := NewWriter(64)
		fused.WriteBits(1, lead)
		ivals := make([]int64, n)
		for i, v := range vals {
			ivals[i] = int64(v)
		}
		fused.WriteBulkInt64(ivals, uint64(base), width)
		manual := NewWriter(64)
		manual.WriteBits(1, lead)
		offs := make([]uint64, n)
		for i, v := range ivals {
			offs[i] = uint64(v) - uint64(base)
		}
		manual.WriteBulk(offs, width)
		if !bytes.Equal(fused.Bytes(), manual.Bytes()) {
			t.Fatalf("fused int64 stream differs (width %d lead %d)", width, lead)
		}

		// RunReader leg: run-fused reads over the arbitrary raw stream in
		// short chunks must agree with ReadBulkInt64 on values, rejection
		// and final position.
		if width > 0 && n > 0 {
			r1 := NewReader(raw)
			r2 := NewReader(raw)
			if _, err := r1.ReadBits(lead); err == nil {
				if _, err := r2.ReadBits(lead); err != nil {
					t.Fatal(err)
				}
				want := make([]int64, n)
				wantErr := r1.ReadBulkInt64(want, width, uint64(base))
				got := make([]int64, n)
				rr := r2.Run()
				var gotErr error
				for lo := 0; lo < n && gotErr == nil; {
					step := 1 + lo%11
					if lo+step > n {
						step = n - lo
					}
					gotErr = rr.ReadRunInt64(got[lo:lo+step], width, uint64(base))
					lo += step
				}
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("run rejection: bulk %v run %v (width %d lead %d n %d)", wantErr, gotErr, width, lead, n)
				}
				if wantErr == nil {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("run value %d: %d vs %d (width %d lead %d)", i, got[i], want[i], width, lead)
						}
					}
					rr.Detach()
					if r1.BitPos() != r2.BitPos() {
						t.Fatalf("run position: bulk %d run %d", r1.BitPos(), r2.BitPos())
					}
				}
			}
		}
	})
}

// TestReadBulkKernelSpeedup is the CI decode-bench smoke: ReadBulkInt64's
// kernel path must beat the scalar loop by at least 1.5x on a byte-aligned
// mid-width stream (in practice it is 4-8x). Opt-in via BOS_BENCH_SMOKE=1 so
// noisy development machines do not see spurious failures.
func TestReadBulkKernelSpeedup(t *testing.T) {
	if os.Getenv("BOS_BENCH_SMOKE") == "" {
		t.Skip("set BOS_BENCH_SMOKE=1 to run the kernel speedup smoke")
	}
	const width, n = 12, 1024
	vals := benchVals(width, n)
	w := NewWriter(1 << 14)
	w.WriteBulk(vals, width)
	data := w.Bytes()
	out := make([]int64, n)
	const base = 12345

	kernel := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewReader(data)
			if err := r.ReadBulkInt64(out, width, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	scalar := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewReader(data)
			if err := r.readBulkInt64Scalar(out, width, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	sp := float64(scalar.NsPerOp()) / float64(kernel.NsPerOp())
	t.Logf("ReadBulkInt64 width %d: scalar %d ns/op, kernel %d ns/op, speedup %.2fx",
		width, scalar.NsPerOp(), kernel.NsPerOp(), sp)
	if sp < 1.5 {
		t.Fatalf("kernel speedup %.2fx < 1.5x (scalar %d ns/op, kernel %d ns/op)",
			sp, scalar.NsPerOp(), kernel.NsPerOp())
	}
}
