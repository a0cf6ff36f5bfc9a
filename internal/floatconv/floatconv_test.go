package floatconv

import (
	"math"
	"testing"
)

func TestPrecisionOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {1, 0}, {-17, 0}, {0.5, 1}, {3.25, 2}, {0.125, 3},
		{12.34, 2}, {-0.001, 3}, {123456789, 0},
	}
	for _, c := range cases {
		if got := PrecisionOf(c.v); got != c.want {
			t.Errorf("PrecisionOf(%v) = %d want %d", c.v, got, c.want)
		}
	}
}

func TestPrecisionOfSpecials(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Pi, 1e300} {
		if got := PrecisionOf(v); got != -1 {
			t.Errorf("PrecisionOf(%v) = %d want -1", v, got)
		}
	}
}

func TestDetectPrecision(t *testing.T) {
	p, ok := DetectPrecision([]float64{1.5, 2.25, 3})
	if !ok || p != 2 {
		t.Errorf("got p=%d ok=%v want 2,true", p, ok)
	}
	if _, ok := DetectPrecision([]float64{1.5, math.Pi}); ok {
		t.Error("pi should not be detectable")
	}
	if p, ok := DetectPrecision(nil); !ok || p != 0 {
		t.Errorf("empty: p=%d ok=%v", p, ok)
	}
}

func TestScaledRoundTrip(t *testing.T) {
	vals := []float64{1.25, -3.5, 0, 100.75, -0.25}
	p, ok := DetectPrecision(vals)
	if !ok {
		t.Fatal("detect failed")
	}
	scaled, err := ToScaled(vals, p)
	if err != nil {
		t.Fatal(err)
	}
	back := FromScaled(scaled, p)
	for i := range vals {
		if back[i] != vals[i] {
			t.Errorf("value %d: got %v want %v", i, back[i], vals[i])
		}
	}
}

func TestScaledRoundTripDecimals(t *testing.T) {
	// Decimal fractions that are *not* exact binary fractions must still
	// round-trip through the decimal scaling.
	vals := []float64{0.1, 0.2, 0.3, 12.7, -4.9, 1234.56}
	p, ok := DetectPrecision(vals)
	if !ok {
		t.Fatal("detect failed")
	}
	scaled, err := ToScaled(vals, p)
	if err != nil {
		t.Fatal(err)
	}
	back := FromScaled(scaled, p)
	for i := range vals {
		if back[i] != vals[i] {
			t.Errorf("value %d: got %v want %v", i, back[i], vals[i])
		}
	}
}

func TestToScaledRejects(t *testing.T) {
	if _, err := ToScaled([]float64{math.Pi}, 5); err == nil {
		t.Error("pi at p=5 should fail")
	}
	if _, err := ToScaled([]float64{1}, -1); err == nil {
		t.Error("negative precision should fail")
	}
	if _, err := ToScaled([]float64{1}, MaxPrecision+1); err == nil {
		t.Error("excess precision should fail")
	}
}

func TestLargeMagnitudeRejected(t *testing.T) {
	// Values whose scaled form exceeds 2^53 cannot be represented exactly.
	if p := PrecisionOf(9.007199254740993e15 + 0.5); p > 0 {
		t.Errorf("got p=%d for value beyond exact integer range", p)
	}
}

func TestNegativeZeroFallsBackToRaw(t *testing.T) {
	// -0.0 passes float-equality round trips but cannot survive the int64
	// leg of the scaling; detection must reject it so codecs take the
	// bit-exact raw path.
	negZero := math.Copysign(0, -1)
	if p := PrecisionOf(negZero); p != -1 {
		t.Errorf("PrecisionOf(-0) = %d want -1", p)
	}
	if _, ok := DetectPrecision([]float64{1.5, negZero}); ok {
		t.Error("series containing -0 must not be detected as decimal")
	}
}

// TestAppendFromScaled: appending keeps what dst held and matches
// FromScaled for the appended part, whatever dst's spare capacity.
func TestAppendFromScaled(t *testing.T) {
	scaled := []int64{125, -350, 0, 10075}
	want := FromScaled(scaled, 2)
	for _, dst := range [][]float64{nil, {9.5}, make([]float64, 1, 64)} {
		head := append([]float64(nil), dst...)
		got := AppendFromScaled(dst, scaled, 2)
		if len(got) != len(head)+len(want) {
			t.Fatalf("dst of %d: %d values, want %d", len(head), len(got), len(head)+len(want))
		}
		for i, v := range head {
			if got[i] != v {
				t.Fatalf("dst of %d: value %d overwritten", len(head), i)
			}
		}
		for i, v := range want {
			if got[len(head)+i] != v {
				t.Fatalf("dst of %d: value %d = %v, want %v", len(head), i, got[len(head)+i], v)
			}
		}
	}
}
