// Package floatconv converts float64 series to scaled integers and back.
//
// The integer codecs in the paper (RLE, SPRINTZ, TS2DIFF and their packed
// variants) are applied to float datasets by "first converting float into
// integer by scaling 10^p, where p is the precision of the original
// floating-point data" (Section VIII-A2, following BUFF). This package
// detects p and performs the exact, reversible scaling.
package floatconv

import (
	"errors"
	"math"
	"slices"
)

// MaxPrecision is the largest decimal precision DetectPrecision will try.
// Beyond ~15 significant decimals a float64 cannot represent the decimal
// exactly anyway.
const MaxPrecision = 12

// ErrNotDecimal reports a value that is not exactly representable as a
// scaled integer at any precision up to MaxPrecision.
var ErrNotDecimal = errors.New("floatconv: value is not a short decimal")

// pow10 holds the exact powers of ten up to MaxPrecision.
var pow10 [MaxPrecision + 1]float64

func init() {
	p := 1.0
	for i := range pow10 {
		pow10[i] = p
		p *= 10
	}
}

// roundTripsAt reports whether v survives scaling by 10^p and back
// *bit-exactly*: float64(int64(round(v*10^p))) / 10^p must reproduce v,
// including the sign of zero (plain float comparison treats -0 == +0, but
// the int64 leg of the trip cannot carry a negative zero).
func roundTripsAt(v float64, p int) bool {
	s := math.Round(v * pow10[p])
	if math.Abs(s) >= 1<<53 {
		return false
	}
	back := float64(int64(s)) / pow10[p]
	return back == v && math.Signbit(back) == math.Signbit(v)
}

// PrecisionOf returns the smallest p in [0, MaxPrecision] at which v scales
// exactly, or -1 when none does (NaN, Inf, long binary fractions).
func PrecisionOf(v float64) int {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	for p := 0; p <= MaxPrecision; p++ {
		if roundTripsAt(v, p) {
			return p
		}
	}
	return -1
}

// DetectPrecision returns the smallest p at which every value in vals scales
// exactly. ok is false when any value resists scaling; such series must use a
// raw float path instead.
func DetectPrecision(vals []float64) (p int, ok bool) {
	for _, v := range vals {
		vp := PrecisionOf(v)
		if vp < 0 {
			return 0, false
		}
		if vp > p {
			p = vp
		}
	}
	return p, true
}

// DetectPrecisionLenient returns the largest precision needed by the values
// that scale exactly, skipping the ones that do not (NaN, Inf, -0, long
// binary fractions). ok is false when no value at all is decimal. It serves
// codecs that can mark individual values as unscalable (e.g. Elf's per-value
// erasure flag) rather than falling back for the whole stream.
func DetectPrecisionLenient(vals []float64) (p int, ok bool) {
	for _, v := range vals {
		if vp := PrecisionOf(v); vp >= 0 {
			ok = true
			if vp > p {
				p = vp
			}
		}
	}
	return p, ok
}

// ToScaled converts vals to integers scaled by 10^p. It returns
// ErrNotDecimal if any value does not convert exactly.
func ToScaled(vals []float64, p int) ([]int64, error) {
	if p < 0 || p > MaxPrecision {
		return nil, ErrNotDecimal
	}
	out := make([]int64, len(vals))
	for i, v := range vals {
		if !roundTripsAt(v, p) {
			return nil, ErrNotDecimal
		}
		out[i] = int64(math.Round(v * pow10[p]))
	}
	return out, nil
}

// FromScaled inverts ToScaled.
func FromScaled(scaled []int64, p int) []float64 {
	return AppendFromScaled(nil, scaled, p)
}

// AppendFromScaled appends scaled, divided by 10^p, to dst and returns the
// extended slice: FromScaled into a buffer the caller provides.
func AppendFromScaled(dst []float64, scaled []int64, p int) []float64 {
	base := len(dst)
	dst = slices.Grow(dst, len(scaled))[:base+len(scaled)]
	out := dst[base:]
	for i, s := range scaled {
		out[i] = float64(s) / pow10[p]
	}
	return dst
}
