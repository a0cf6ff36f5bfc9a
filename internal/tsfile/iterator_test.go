package tsfile

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestIteratorMatchesQuery(t *testing.T) {
	file, want := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for series, pts := range want {
		minT := pts[len(pts)/5].T
		maxT := pts[4*len(pts)/5].T
		it, err := Iter[int64](r, series, minT, maxT)
		if err != nil {
			t.Fatal(err)
		}
		var got []Point
		for it.Next() {
			got = append(got, it.Point())
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		exp, err := r.Query(series, minT, maxT, -1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(exp) {
			t.Fatalf("%s: iterator %d points, query %d", series, len(got), len(exp))
		}
		for i := range exp {
			if got[i] != exp[i] {
				t.Fatalf("%s point %d: %v vs %v", series, i, got[i], exp[i])
			}
		}
	}
}

func TestIteratorEmptyRange(t *testing.T) {
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := Iter[int64](r, "root.sg.d1.temp", -100, -50)
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Error("empty range yielded a point")
	}
	if it.Err() != nil {
		t.Error(it.Err())
	}
}

func TestIteratorUnknownSeries(t *testing.T) {
	file, _ := buildFile(t, Options{})
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Iter[int64](r, "nope", 0, 10); !errors.Is(err, ErrNoSeries) {
		t.Errorf("err = %v", err)
	}
}

func TestIteratorExhaustedStaysDone(t *testing.T) {
	file, want := buildFile(t, Options{})
	r, _ := OpenReader(file, file.Size(), Options{})
	series := "root.sg.d2.temp"
	it, _ := Iter[int64](r, series, 0, 1<<62)
	n := 0
	for it.Next() {
		n++
	}
	if n != len(want[series]) {
		t.Fatalf("iterated %d want %d", n, len(want[series]))
	}
	if it.Next() || it.Next() {
		t.Error("exhausted iterator yielded again")
	}
}

func BenchmarkIterator(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var buf []byte
	{
		var w *Writer
		bb := &byteBuf{}
		w = NewWriter(bb, Options{})
		start := int64(0)
		for c := 0; c < 8; c++ {
			pts := makePoints(rng, start, 4096)
			start = pts[len(pts)-1].T
			w.Append("s", pts)
		}
		w.Close()
		buf = bb.b
	}
	r, err := OpenReader(byteReaderAt(buf), int64(len(buf)), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, _ := Iter[int64](r, "s", 0, 1<<62)
		for it.Next() {
		}
		if it.Err() != nil {
			b.Fatal(it.Err())
		}
	}
}

type byteBuf struct{ b []byte }

func (bb *byteBuf) Write(p []byte) (int, error) { bb.b = append(bb.b, p...); return len(p), nil }

type byteReaderAt []byte

func (b byteReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b)) {
		return 0, errors.New("EOF")
	}
	n := copy(p, b[off:])
	return n, nil
}

// TestFloatIteratorMatchesReadAll: Iter[float64] over scaled and raw chunks,
// a NaN included, yields exactly what ReadAllFloats does, and a read of the
// other kind fails with ErrKindMismatch.
func TestFloatIteratorMatchesReadAll(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Append("ints", []Point{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	scaled := makeFloatPoints(rng, 0, 700, 2)
	raw := makeFloatPoints(rng, scaled[len(scaled)-1].T, 300, 2)
	raw[5].V = math.NaN()
	raw[9].V = math.Pi
	for _, chunk := range [][]FloatPoint{scaled, raw} {
		if err := w.AppendFloats("floats", chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chunks, _ := r.Chunks("floats"); len(chunks) != 2 || chunks[0].Kind != kindScaled || chunks[1].Kind != kindRaw {
		t.Fatalf("chunks = %+v, want one scaled and one raw chunk", chunks)
	}

	want, err := r.ReadAllFloats("floats")
	if err != nil {
		t.Fatal(err)
	}
	it, err := Iter[float64](r, "floats", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	var got []FloatPoint
	for it.Next() {
		got = append(got, it.Point())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if !equalSamples(got, want) || len(got) != len(scaled)+len(raw) {
		t.Fatalf("iterator yielded %d points, ReadAllFloats %d", len(got), len(want))
	}

	fi, err := Iter[float64](r, "ints", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Next() || !errors.Is(fi.Err(), ErrKindMismatch) {
		t.Errorf("float iteration of an int series: err = %v", fi.Err())
	}
	ii, err := Iter[int64](r, "floats", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if ii.Next() || !errors.Is(ii.Err(), ErrKindMismatch) {
		t.Errorf("int iteration of a float series: err = %v", ii.Err())
	}
}
