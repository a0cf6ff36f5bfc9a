package tsfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bos/internal/bitpack"
	"bos/internal/core"
)

func makePoints(rng *rand.Rand, start int64, n int) []Point {
	pts := make([]Point, n)
	t := start
	v := int64(20000)
	for i := range pts {
		t += 1 + rng.Int63n(3)
		if rng.Float64() < 0.01 {
			v += rng.Int63n(1 << 20)
		} else {
			v += rng.Int63n(9) - 4
		}
		pts[i] = Point{t, v}
	}
	return pts
}

func buildFile(t *testing.T, opt Options) (*bytes.Reader, map[string][]Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w := NewWriter(&buf, opt)
	want := map[string][]Point{}
	for _, series := range []string{"root.sg.d1.temp", "root.sg.d1.volt", "root.sg.d2.temp"} {
		start := int64(0)
		for chunk := 0; chunk < 4; chunk++ {
			pts := makePoints(rng, start, 500+rng.Intn(500))
			start = pts[len(pts)-1].T
			if err := w.Append(series, pts); err != nil {
				t.Fatal(err)
			}
			want[series] = append(want[series], pts...)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes()), want
}

func TestWriteReadAll(t *testing.T) {
	for _, opt := range []Options{
		{},
		{Packer: bitpack.Packer{}},
		{Packer: core.NewPacker(core.SeparationMedian), BlockSize: 256},
	} {
		file, want := buildFile(t, opt)
		r, err := OpenReader(file, file.Size(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Series()) != 3 {
			t.Fatalf("series = %v", r.Series())
		}
		for series, pts := range want {
			got, err := r.ReadAll(series)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(pts) {
				t.Fatalf("%s: %d points want %d", series, len(got), len(pts))
			}
			for i := range pts {
				if got[i] != pts[i] {
					t.Fatalf("%s point %d: got %v want %v", series, i, got[i], pts[i])
				}
			}
		}
	}
}

func TestQueryTimeRange(t *testing.T) {
	file, want := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	series := "root.sg.d1.temp"
	pts := want[series]
	minT := pts[len(pts)/4].T
	maxT := pts[3*len(pts)/4].T
	got, err := r.Query(series, minT, maxT, -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	var exp []Point
	for _, p := range pts {
		if p.T >= minT && p.T <= maxT {
			exp = append(exp, p)
		}
	}
	if len(got) != len(exp) {
		t.Fatalf("got %d points want %d", len(got), len(exp))
	}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("point %d: got %v want %v", i, got[i], exp[i])
		}
	}
}

func TestQueryValuePredicate(t *testing.T) {
	file, want := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	series := "root.sg.d2.temp"
	pts := want[series]
	minV, maxV := pts[0].V, pts[0].V+1000
	got, err := r.Query(series, pts[0].T, pts[len(pts)-1].T, minV, maxV)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, p := range pts {
		if p.V >= minV && p.V <= maxV {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("got %d points want %d", len(got), count)
	}
	for _, p := range got {
		if p.V < minV || p.V > maxV {
			t.Fatalf("predicate violated: %v", p)
		}
	}
}

func TestPruningSkipsChunks(t *testing.T) {
	// A query outside every chunk's value range must return nothing (and
	// reads only the footer — verified indirectly via metadata).
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Query("root.sg.d1.temp", 0, 1<<62, -1<<62, -1<<40)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d points, err %v", len(got), err)
	}
	chunks, err := r.Chunks("root.sg.d1.temp")
	if err != nil || len(chunks) != 4 {
		t.Fatalf("chunks = %d err %v", len(chunks), err)
	}
	for _, c := range chunks {
		if c.Count <= 0 || c.EncodedBytes <= 0 || c.MinT > c.MaxT || c.MinV > c.MaxV {
			t.Fatalf("bad chunk meta %+v", c)
		}
	}
}

func TestUnknownSeries(t *testing.T) {
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAll("root.nope"); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v", err)
	}
}

func TestUnsortedTimestampsRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	err := w.Append("s", []Point{{5, 1}, {5, 2}})
	if !errors.Is(err, ErrUnsorted) {
		t.Errorf("err = %v", err)
	}
	err = w.Append("s", []Point{{5, 1}, {4, 2}})
	if !errors.Is(err, ErrUnsorted) {
		t.Errorf("err = %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series()) != 0 {
		t.Errorf("series = %v", r.Series())
	}
}

func TestCorruptFilesNeverPanic(t *testing.T) {
	file, _ := buildFile(t, Options{})
	data := make([]byte, file.Size())
	file.ReadAt(data, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		cor := append([]byte(nil), data...)
		for k := 0; k < 1+rng.Intn(8); k++ {
			cor[rng.Intn(len(cor))] ^= byte(1 << rng.Intn(8))
		}
		cor = cor[:rng.Intn(len(cor)+1)]
		r, err := OpenReader(bytes.NewReader(cor), int64(len(cor)), Options{})
		if err != nil {
			continue
		}
		for _, s := range r.Series() {
			r.ReadAll(s)
		}
	}
}

func TestBOSFileSmallerThanBPFile(t *testing.T) {
	// The Figure 11 storage claim on the file substrate: with spiky
	// values, the BOS-packed file is smaller than the BP-packed file.
	rng := rand.New(rand.NewSource(3))
	pts := makePoints(rng, 0, 20000)
	sizeWith := encodeFileSize(t, pts, Options{})
	sizeWithout := encodeFileSize(t, pts, Options{Packer: bitpack.Packer{}})
	if sizeWith >= sizeWithout {
		t.Errorf("BOS file %d bytes >= BP file %d", sizeWith, sizeWithout)
	}
}

func encodeFileSize(t *testing.T, pts []Point, opt Options) int {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opt)
	if err := w.Append("s", pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

func BenchmarkAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := makePoints(rng, 0, 8192)
	b.ReportAllocs()
	b.SetBytes(int64(len(pts) * 16))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf, Options{})
		if err := w.Append("s", pts); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	start := int64(0)
	for c := 0; c < 16; c++ {
		pts := makePoints(rng, start, 4096)
		start = pts[len(pts)-1].T
		if err := w.Append("s", pts); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Query("s", start/3, start*2/3, -1<<62, 1<<62); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeSeriesByteIdentity builds the same file twice — once through the
// Append/AppendFloats writer path and once by pre-encoding every chunk with
// EncodeSeries and installing them via AppendEncoded — and
// requires the bytes to match exactly. This is the contract the parallel
// flush relies on: encoding off-writer must not change the file.
func TestEncodeSeriesByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, opt := range []Options{
		{},
		{Packer: bitpack.Packer{}},
		{Packer: core.NewPacker(core.SeparationMedian), BlockSize: 256},
	} {
		ints := map[string][]Point{}
		for _, s := range []string{"root.sg.a", "root.sg.b", "root.sg.c"} {
			ints[s] = makePoints(rng, 0, 400+rng.Intn(400))
		}
		floats := map[string][]FloatPoint{}
		for _, s := range []string{"root.sg.f1", "root.sg.f2"} {
			pts := make([]FloatPoint, 300)
			for i := range pts {
				pts[i] = FloatPoint{T: int64(i * 2), V: float64(rng.Intn(5000)) / 100}
			}
			// f2 is non-decimal to exercise the raw-bits branch.
			if s == "root.sg.f2" {
				for i := range pts {
					pts[i].V = rng.NormFloat64()
				}
			}
			floats[s] = pts
		}
		order := []string{"root.sg.a", "root.sg.b", "root.sg.c"}
		forder := []string{"root.sg.f1", "root.sg.f2"}

		var serial bytes.Buffer
		w := NewWriter(&serial, opt)
		for _, s := range order {
			if err := w.Append(s, ints[s]); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range forder {
			if err := w.AppendFloats(s, floats[s]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		var staged bytes.Buffer
		w2 := NewWriter(&staged, opt)
		for _, s := range order {
			c, err := EncodeSeries(opt, ints[s], "")
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.AppendEncoded(s, c); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range forder {
			c, err := EncodeSeries(opt, floats[s], "")
			if err != nil {
				t.Fatal(err)
			}
			if err := w2.AppendEncoded(s, c); err != nil {
				t.Fatal(err)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(serial.Bytes(), staged.Bytes()) {
			t.Fatalf("staged file differs from serial file (%d vs %d bytes)",
				staged.Len(), serial.Len())
		}
	}
}

// TestAppendEncodedEmpty verifies a zero chunk is a clean no-op.
func TestAppendEncodedEmpty(t *testing.T) {
	c, err := EncodeSeries[int64](Options{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.AppendEncoded("root.sg.x", c); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.order) != 0 {
		t.Fatalf("empty chunk registered series %v", w.order)
	}
}
