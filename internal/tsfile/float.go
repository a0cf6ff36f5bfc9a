package tsfile

import (
	"errors"
	"math"
	"slices"

	"bos/internal/floatconv"
)

// Column kinds, recorded per chunk and per series.
const (
	kindInt    byte = 0 // int64 values
	kindScaled byte = 1 // float64 values stored as 10^p-scaled integers
	kindRaw    byte = 2 // float64 values stored as raw bits (non-decimal data)
)

// ErrKindMismatch reports mixing integer and float chunks in one series, or
// querying a series with the wrong typed API.
var ErrKindMismatch = errors.New("tsfile: series value kind mismatch")

// FloatPoint is one (timestamp, float value) sample.
type FloatPoint = Sample[float64]

// AppendFloats adds one chunk of float samples to a series using the file's
// default packer; EncodeSeries says how float values are stored.
func (w *Writer) AppendFloats(series string, points []FloatPoint) error {
	c, err := EncodeSeries(w.opt, points, "")
	if err != nil {
		return err
	}
	return w.AppendEncoded(series, c)
}

// storedValues returns the integer column a chunk stores for vals and sets
// the chunk's kind, precision and value statistics: integers as they are,
// decimal floats as 10^p-scaled integers, other floats as raw bits. The
// statistics of a raw chunk are the full-range sentinel, because raw bits
// have no orderable min, max or sum; that disables value pruning for it.
func storedValues[V int64 | float64](m *ChunkMeta, vals []V) []int64 {
	var stored []int64
	switch vs := any(vals).(type) {
	case []int64:
		m.Kind, stored = kindInt, vs
	case []float64:
		if p, ok := floatconv.DetectPrecision(vs); ok {
			if scaled, err := floatconv.ToScaled(vs, p); err == nil {
				m.Kind, m.Precision, stored = kindScaled, p, scaled
			}
		}
		if stored == nil {
			m.Kind = kindRaw
			m.MinV, m.MaxV = math.MinInt64, math.MaxInt64
			stored = make([]int64, len(vs))
			for i, v := range vs {
				stored[i] = int64(math.Float64bits(v))
			}
			return stored
		}
	}
	m.MinV, m.MaxV = stored[0], stored[0]
	for _, v := range stored {
		m.MinV, m.MaxV = min(m.MinV, v), max(m.MaxV, v)
		m.Sum += v // wrapping, like Aggregate
	}
	m.HasStats = true
	return stored
}

// ReadAllFloats returns every float point of a series in time order.
func (r *Reader) ReadAllFloats(series string) ([]FloatPoint, error) {
	return r.QueryFloats(series, math.MinInt64, math.MaxInt64, math.Inf(-1), math.Inf(1))
}

// QueryFloats returns the points of a float series with minT <= T <= maxT
// and a value not outside [minV, maxV] (a NaN is never outside), pruning
// scaled chunks via their integer statistics.
func (r *Reader) QueryFloats(series string, minT, maxT int64, minV, maxV float64) ([]FloatPoint, error) {
	return scan(r, series, minT, maxT, minV, maxV, func(m ChunkMeta) bool {
		if m.Kind != kindScaled {
			return true // raw chunks carry no orderable statistics
		}
		// Prune on the scaled statistics when the float bounds scale
		// safely.
		scale := math.Pow(10, float64(m.Precision))
		if hi := minV * scale; !math.IsInf(hi, 0) && float64(m.MaxV) < hi {
			return false
		}
		if lo := maxV * scale; !math.IsInf(lo, 0) && float64(m.MinV) > lo {
			return false
		}
		return true
	})
}

// chunkValues returns a decoded value column as V: an integer chunk's
// column as it is, and otherwise the column converted and appended to dst,
// a scaled chunk's divided by 10^precision, a raw chunk's reinterpreted as
// float bits.
func chunkValues[V int64 | float64](dst []V, kind byte, precision int, vals []int64) []V {
	switch kind {
	case kindInt:
		return any(vals).([]V)
	case kindScaled:
		return any(floatconv.AppendFromScaled(any(dst).([]float64), vals, precision)).([]V)
	}
	out := any(dst).([]float64)
	base := len(out)
	out = slices.Grow(out, len(vals))[:base+len(vals)]
	for i, v := range vals {
		out[base+i] = math.Float64frombits(uint64(v))
	}
	return any(out).([]V)
}
