package tsfile

import (
	"errors"
	"fmt"
	"math"

	"bos/internal/codec"
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

// AppendFloats adds one chunk of float samples to a series. Decimal data is
// scaled to integers (keeping all the packing machinery and statistics
// pruning); non-decimal data falls back to raw bits, losslessly.
func (w *Writer) AppendFloats(series string, points []FloatPoint) error {
	return w.AppendFloatsPacked(series, points, "")
}

// AppendFloatsPacked is AppendFloats with a per-chunk packer override,
// mirroring AppendPacked: the named packer encodes the chunk and is recorded
// in the footer ("" = the file's default packer).
func (w *Writer) AppendFloatsPacked(series string, points []FloatPoint, packerName string) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("tsfile: writer closed")
	}
	c, err := EncodeFloatSeries(w.opt, points, packerName)
	if err != nil {
		return err
	}
	return w.AppendEncoded(series, c)
}

// EncodeFloatSeries encodes one float chunk without a Writer, mirroring
// EncodeSeries: same validation, precision detection and packing as
// AppendFloatsPacked, safe for concurrent use (the packer is resolved fresh
// per call).
func EncodeFloatSeries(opt Options, points []FloatPoint, packerName string) (EncodedChunk, error) {
	if len(points) == 0 {
		return EncodedChunk{}, nil
	}
	packer, err := encodePacker(opt, packerName)
	if err != nil {
		return EncodedChunk{}, err
	}
	times := make([]int64, len(points))
	vals := make([]float64, len(points))
	for i, p := range points {
		if i > 0 && p.T <= points[i-1].T {
			return EncodedChunk{}, fmt.Errorf("%w: t[%d]=%d after %d", ErrUnsorted, i, p.T, points[i-1].T)
		}
		times[i] = p.T
		vals[i] = p.V
	}
	meta := ChunkMeta{
		Count: len(points),
		MinT:  times[0],
		MaxT:  times[len(times)-1],
	}
	meta.Packer = packerName
	var body []byte
	if p, ok := floatconv.DetectPrecision(vals); ok {
		scaled, err := floatconv.ToScaled(vals, p)
		if err == nil {
			meta.Kind = kindScaled
			meta.Precision = p
			meta.MinV, meta.MaxV = minMax(scaled)
			for _, v := range scaled {
				meta.Sum += v // wrapping sum of the scaled integers
			}
			meta.HasStats = true
			body = encodeFloatChunk(packer, opt.BlockSize, kindScaled, p, times, scaled)
		}
	}
	if body == nil {
		meta.Kind = kindRaw
		bits := make([]int64, len(vals))
		for i, v := range vals {
			bits[i] = int64(math.Float64bits(v))
		}
		// Raw chunks carry no orderable statistics; value pruning is
		// disabled for them via the full-range sentinel.
		meta.MinV, meta.MaxV = math.MinInt64, math.MaxInt64
		body = encodeFloatChunk(packer, opt.BlockSize, kindRaw, 0, times, bits)
	}
	meta.EncodedBytes = len(body)
	return EncodedChunk{Meta: meta, Body: body}, nil
}

func minMax(vals []int64) (lo, hi int64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// encodeFloatChunk mirrors encodeChunk with a kind byte and optional
// precision before the columns.
func encodeFloatChunk(p codec.Packer, blockSize int, kind byte, precision int, times, vals []int64) []byte {
	body := codec.AppendUvarint(nil, uint64(len(vals)))
	body = append(body, kind)
	if kind == kindScaled {
		body = append(body, byte(precision))
	}
	body = appendColumns(p, blockSize, body, times, vals)
	return body
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

// chunkValues converts a decoded value column to V: an integer chunk's
// column as it is, a scaled chunk's divided by 10^precision, a raw chunk's
// reinterpreted as float bits.
func chunkValues[V int64 | float64](kind byte, precision int, vals []int64) []V {
	switch kind {
	case kindInt:
		return any(vals).([]V)
	case kindScaled:
		return any(floatconv.FromScaled(vals, precision)).([]V)
	}
	fvals := make([]float64, len(vals))
	for i, v := range vals {
		fvals[i] = math.Float64frombits(uint64(v))
	}
	return any(fvals).([]V)
}
