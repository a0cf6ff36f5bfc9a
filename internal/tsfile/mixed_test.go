package tsfile

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"bos/internal/codec"
	"bos/internal/packers"
)

// TestMixedPackerFile writes one file whose chunks use different packers —
// the layout background compaction produces — and verifies every chunk
// decodes with its own operator, including after reopening with a different
// default packer.
func TestMixedPackerFile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	want := map[string][]Point{}
	packersBySeries := map[string]string{
		"s.default":  "",
		"s.bp":       "bp",
		"s.pfor":     "pfor",
		"s.fastpfor": "fastpfor",
		"s.bosm":     "bos-m", // alias form must resolve too
	}
	appendPacked := func(series string, c EncodedChunk, err error) {
		t.Helper()
		if err == nil {
			err = w.AppendEncoded(series, c)
		}
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
	}
	for series, name := range packersBySeries {
		pts := makePoints(rng, 0, 1500)
		c, err := EncodeSeries(Options{}, pts, name)
		appendPacked(series, c, err)
		want[series] = pts
	}
	fpts := make([]FloatPoint, 300)
	tt := int64(0)
	for i := range fpts {
		tt += 1 + rng.Int63n(5)
		fpts[i] = FloatPoint{T: tt, V: float64(rng.Intn(5000)) / 100}
	}
	c, err := EncodeSeries(Options{}, fpts, "bp")
	appendPacked("s.float", c, err)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := EncodeSeries(Options{}, []Point{{1, 1}}, "nosuchpacker"); err == nil {
		t.Error("unknown packer name accepted")
	}

	// Read back under two different default packers: per-chunk overrides must
	// win regardless. Chunks with no override still need the writing default
	// (the pre-existing contract), so the mismatched pass skips that series.
	for pass, opt := range []Options{{}, {Packer: mustPacker(t, "pfor")}} {
		file := bytes.NewReader(buf.Bytes())
		r, err := OpenReader(file, file.Size(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for series, pts := range want {
			if pass == 1 && series == "s.default" {
				continue
			}
			got, err := r.ReadAll(series)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			if len(got) != len(pts) {
				t.Fatalf("%s: %d points want %d", series, len(got), len(pts))
			}
			for i := range got {
				if got[i] != pts[i] {
					t.Fatalf("%s: point %d: got %v want %v", series, i, got[i], pts[i])
				}
			}
		}
		gotF, err := r.ReadAllFloats("s.float")
		if err != nil {
			t.Fatal(err)
		}
		if len(gotF) != len(fpts) {
			t.Fatalf("float: %d points want %d", len(gotF), len(fpts))
		}
		for i := range gotF {
			if gotF[i].T != fpts[i].T || math.Abs(gotF[i].V-fpts[i].V) > 1e-9 {
				t.Fatalf("float point %d: got %v want %v", i, gotF[i], fpts[i])
			}
		}
		// The footer must expose the recorded packer names.
		chunks, err := r.Chunks("s.fastpfor")
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 1 || chunks[0].Packer != "fastpfor" {
			t.Fatalf("footer packer: %+v", chunks)
		}
	}
}

func mustPacker(t *testing.T, name string) codec.Packer {
	t.Helper()
	p, err := packers.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
