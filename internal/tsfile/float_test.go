package tsfile

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func makeFloatPoints(rng *rand.Rand, start int64, n int, precision int) []FloatPoint {
	scale := math.Pow(10, float64(precision))
	pts := make([]FloatPoint, n)
	t := start
	v := 20.0
	for i := range pts {
		t += 1 + rng.Int63n(3)
		v += rng.NormFloat64() * 0.5
		if rng.Float64() < 0.01 {
			v = rng.Float64() * 2 // dropout
		}
		pts[i] = FloatPoint{t, math.Round(v*scale) / scale}
	}
	return pts
}

func TestFloatWriteReadAll(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	var want []FloatPoint
	start := int64(0)
	for c := 0; c < 3; c++ {
		pts := makeFloatPoints(rng, start, 800, 2)
		start = pts[len(pts)-1].T
		if err := w.AppendFloats("root.f", pts); err != nil {
			t.Fatal(err)
		}
		want = append(want, pts...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAllFloats("root.f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
			t.Fatalf("point %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestFloatRawFallback(t *testing.T) {
	// Non-decimal values (pi multiples) must round-trip bit-exactly via
	// the raw chunk kind.
	pts := make([]FloatPoint, 500)
	for i := range pts {
		pts[i] = FloatPoint{int64(i + 1), math.Pi * float64(i)}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.AppendFloats("raw", pts); err != nil {
		t.Fatal(err)
	}
	w.Close()
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks, _ := r.Chunks("raw")
	if chunks[0].Kind != kindRaw {
		t.Fatalf("kind = %d want raw", chunks[0].Kind)
	}
	got, err := r.ReadAllFloats("raw")
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
			t.Fatalf("point %d not bit-exact", i)
		}
	}
}

func TestFloatQueryRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := makeFloatPoints(rng, 0, 3000, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.AppendFloats("f", pts[:1500]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFloats("f", pts[1500:]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	minT, maxT := pts[500].T, pts[2500].T
	minV, maxV := 18.0, 22.0
	got, err := r.QueryFloats("f", minT, maxT, minV, maxV)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, p := range pts {
		if p.T >= minT && p.T <= maxT && p.V >= minV && p.V <= maxV {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("got %d points want %d", len(got), count)
	}
	for _, p := range got {
		if p.V < minV || p.V > maxV || p.T < minT || p.T > maxT {
			t.Fatalf("predicate violated: %v", p)
		}
	}
}

func TestFloatValuePruning(t *testing.T) {
	// A value window far above the data must prune every scaled chunk.
	rng := rand.New(rand.NewSource(22))
	pts := makeFloatPoints(rng, 0, 2000, 2)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.AppendFloats("f", pts)
	w.Close()
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.QueryFloats("f", 0, 1<<40, 1e9, 2e9)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d points err %v", len(got), err)
	}
}

func TestKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Append("ints", []Point{{1, 10}, {2, 20}})
	w.AppendFloats("floats", []FloatPoint{{1, 1.5}, {2, 2.5}})
	w.Close()
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAllFloats("ints"); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("float read of int series: %v", err)
	}
	if _, err := r.ReadAll("floats"); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("int read of float series: %v", err)
	}
}

func TestFloatUnsortedRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	err := w.AppendFloats("f", []FloatPoint{{5, 1}, {4, 2}})
	if !errors.Is(err, ErrUnsorted) {
		t.Errorf("err = %v", err)
	}
}

// TestQueryBoundsInclusiveAndNaN pins the value and time predicate both
// typed range scans share: bounds are inclusive on both axes, and a value
// test is "not outside [minV, maxV]", so a raw chunk's NaN survives finite
// float bounds.
func TestQueryBoundsInclusiveAndNaN(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Append("ints", []Point{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFloats("scaled", []FloatPoint{{1, 1.5}, {2, 2.5}, {3, 3.5}, {4, 4.5}, {5, 5.5}}); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	if err := w.AppendFloats("raw", []FloatPoint{{1, 0.1 + 0.2}, {2, nan}, {3, 2.5}, {4, math.Pi}, {5, 0.25}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := bytes.NewReader(buf.Bytes())
	r, err := OpenReader(file, file.Size(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if chunks, _ := r.Chunks("raw"); len(chunks) != 1 || chunks[0].Kind != kindRaw {
		t.Fatalf("raw series chunks = %+v, want one raw chunk", chunks)
	}

	ints, err := r.Query("ints", 2, 4, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Point{{2, 20}, {3, 30}, {4, 40}}; !equalSamples(ints, want) {
		t.Errorf("Query = %v, want %v", ints, want)
	}
	scaled, err := r.QueryFloats("scaled", 2, 4, 2.5, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []FloatPoint{{2, 2.5}, {3, 3.5}, {4, 4.5}}; !equalSamples(scaled, want) {
		t.Errorf("QueryFloats scaled = %v, want %v", scaled, want)
	}
	raw, err := r.QueryFloats("raw", 2, 5, 0.25, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []FloatPoint{{2, nan}, {3, 2.5}, {5, 0.25}}; !equalSamples(raw, want) {
		t.Errorf("QueryFloats raw = %v, want %v", raw, want)
	}
}

// equalSamples compares samples by timestamp and value bits, so NaN equals
// NaN.
func equalSamples[V int64 | float64](got, want []Sample[V]) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].T != want[i].T || math.Float64bits(float64(got[i].V)) != math.Float64bits(float64(want[i].V)) {
			return false
		}
	}
	return true
}
