package bitio

// The width-specialized bulk kernels in kernels_*_gen.go are produced by the
// generator in internal/bitio/gen. Regenerate with:
//
//go:generate go run bos/internal/bitio/gen
//
// Each bit width W in 1..64 gets branch-free pack/unpack functions working a
// whole block at a time — 64 values (exactly W big-endian words) or an
// 8-value tail (ceil(W/8) words) — with a fixed shift/mask schedule and a
// single bounds check per block. There is one pack family and one unpack
// family; the unpack kernels add a frame-of-reference base to every offset,
// since every decoder in the repository stores offsets from a base. The
// ReadBulkInt64/WriteBulk front doors in bulk.go dispatch into them through
// the generated jump-table switches (kernelUnpack64Int64 and friends)
// whenever at least 8 values remain, staging a bit-unaligned stream through
// a stack buffer where that pays, and fall back to the scalar paths
// otherwise. CI regenerates the kernels and fails on any diff, so the
// checked-in files can never drift from the generator.

// kernelBlock and kernelTail are the two generated block sizes.
const (
	kernelBlock = 64
	kernelTail  = 8
)

// tailBytes returns the number of bytes an 8-value tail kernel loads or
// stores for the given width: ceil(W/8) whole 8-byte words. The logical
// payload is exactly W bytes (8 values * W bits); the excess is load/store
// slack the front doors must guarantee.
func tailBytes(width uint) int { return (int(width) + 7) &^ 7 }
