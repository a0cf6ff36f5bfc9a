package bos

import "testing"

// FuzzDecompress: arbitrary bytes through the public integer decoder must
// never panic.
func FuzzDecompress(f *testing.F) {
	f.Add(Compress(nil, []int64{1, 2, 3, 1000000, -5}, Options{}))
	f.Add(Compress(nil, []int64{7, 7, 7}, Options{Pipeline: PipelineRLE}))
	f.Add([]byte{magic0, magic1, kindInt, 0})
	// Raw pipeline, 1024-value blocks, a count of 2^40 and two stray bytes:
	// the count must be rejected, not reserved.
	f.Add([]byte{magic0, magic1, kindInt, byte(PipelineRaw), byte(PostNone), 0x80, 0x08, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		Decompress(data)
		DecompressFloats(data)
	})
}

// FuzzCompressValues: any reinterpreted int64 payload must round-trip.
func FuzzCompressValues(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, planner, pipeline uint8) {
		vals := make([]int64, len(data)/8)
		for i := range vals {
			b := data[i*8:]
			vals[i] = int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
				uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40 |
				uint64(b[6])<<48 | uint64(b[7])<<56)
		}
		opt := Options{Planner: Planner(planner % 4), Pipeline: Pipeline(pipeline % 3)}
		got, err := Decompress(Compress(nil, vals, opt))
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("%+v: %d values want %d", opt, len(got), len(vals))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%+v: value %d mismatch", opt, i)
			}
		}
	})
}
