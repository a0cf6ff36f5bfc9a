package packers

import (
	"runtime"
	"testing"

	"bos/internal/codec"
	"bos/internal/ts2diff"
)

// TestBlocksBeginWithCount: every registry packer's block begins with its
// value count as a uvarint, the header codec.BlockLen reads.
func TestBlocksBeginWithCount(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 127, 128, 1024} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i*i%97) - 40
			}
			if got, err := codec.BlockLen(p.Pack(nil, vals), n); err != nil || got != n {
				t.Errorf("%s: block of %d values reads as %d, %v", name, n, got, err)
			}
		}
	}
}

// TestHostileBlockCountRefused decodes, through both column codecs, a
// column that declares one value but holds a valid constant block of 1<<14
// values. Each must refuse it from the block's count header, before the
// packer unpacks (and allocates for) the block: refusing allocates under
// 1 KiB after warm-up.
func TestHostileBlockCountRefused(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		col := p.Pack(codec.AppendUvarint(nil, 1), make([]int64, 1<<14))
		for _, c := range []struct {
			codec  string
			decode func([]int64, []byte) ([]int64, error)
		}{
			{"Blockwise", codec.NewBlockwise(p, 0).AppendDecode},
			{"ts2diff", ts2diff.New(p, 0).AppendDecode},
		} {
			dst := make([]int64, 0, 1)
			decode := func() {
				if _, err := c.decode(dst, col); err == nil {
					t.Fatalf("%s over %s: a 1-value column holding a block of 1<<14 values decoded", c.codec, name)
				}
			}
			decode()
			if raceEnabled {
				continue
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				decode()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
				t.Errorf("%s over %s: refusing the column allocated %d bytes", c.codec, name, per)
			}
		}
	}
}
