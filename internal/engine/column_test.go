package engine

import (
	"math/rand"
	"slices"
	"testing"

	"bos/internal/tsfile"
)

func TestDedupeSort(t *testing.T) {
	pts := func(tv ...int64) []tsfile.Point {
		var out []tsfile.Point
		for i := 0; i+1 < len(tv); i += 2 {
			out = append(out, tsfile.Point{T: tv[i], V: tv[i+1]})
		}
		return out
	}
	cases := []struct {
		name    string
		in, out []tsfile.Point
	}{
		{"in order", pts(1, 10, 2, 20, 5, 50, 9, 90), pts(1, 10, 2, 20, 5, 50, 9, 90)},
		{"reversed", pts(9, 90, 5, 50, 2, 20, 1, 10), pts(1, 10, 2, 20, 5, 50, 9, 90)},
		{"duplicates at both ends", pts(1, 10, 1, 11, 2, 20, 3, 30, 3, 31, 3, 32), pts(1, 11, 2, 20, 3, 32)},
		{"duplicates throughout", pts(5, 1, 3, 2, 5, 3, 3, 4, 4, 5, 4, 6, 5, 7), pts(3, 4, 4, 6, 5, 7)},
		{"one point", pts(7, 70), pts(7, 70)},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := slices.Clone(tc.in)
			got := dedupeSort(in)
			if !slices.Equal(got, tc.out) {
				t.Fatalf("dedupeSort(%v) = %v, want %v", tc.in, got, tc.out)
			}
			if !slices.Equal(in, tc.in) {
				t.Fatalf("dedupeSort changed its input to %v", in)
			}
			// Queries share the flush snapshot dedupeSort reads, so the
			// answer must be a copy even when nothing moves.
			if len(got) > 0 {
				got[0].V++
				if in[0] != tc.in[0] {
					t.Fatalf("dedupeSort's answer aliases its input")
				}
			}
		})
	}
}

// TestMergeFilesSizedFromFooters pins a merged read's answer to the size
// the files' footers give it: a range over several flushed files is made
// once, with at most a point of slack per overlapped chunk, instead of
// growing by doubling.
func TestMergeFilesSizedFromFooters(t *testing.T) {
	e := openTest(t, Options{FlushThreshold: 1 << 20})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	all := makeFloats(rng, 4000)
	for i := range all {
		all[i].T *= 10
	}
	for lo := 0; lo < len(all); lo += 1000 {
		if err := e.InsertFloatBatch("f", all[lo:lo+1000]); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct{ from, to int64 }{{0, 39990}, {1234, 26789}, {15, 15}, {9995, 10005}} {
		got, err := e.QueryFloats("f", r.from, r.to)
		if err != nil {
			t.Fatal(err)
		}
		want := all[(r.from+9)/10 : r.to/10+1]
		if !slices.Equal(got, want) {
			t.Fatalf("[%d, %d]: %d points, want %d", r.from, r.to, len(got), len(want))
		}
		if slack := cap(got) - len(got); slack > e.Stats().Files {
			t.Errorf("[%d, %d]: %d points in a slice of %d", r.from, r.to, len(got), cap(got))
		}
	}
}
