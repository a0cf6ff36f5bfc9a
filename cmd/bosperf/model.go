package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"bos/internal/dataset"
	"bos/internal/pushdown"
)

// The seeded data model. Every series is a window of one of the twelve paper
// dataset stand-ins (internal/dataset) on a one-second grid; the seed picks
// the windows and nothing else, so every seed stores data of the same shape.
// The oracle derives every expected answer from the same model.

const (
	numSeries   = 80
	floatSeries = 16      // the last 16 series are float; the rest are int
	baseLen     = 1 << 18 // values generated per dataset
	winLen      = 1 << 17 // a series' window; value k is window[k % winLen]
	t0          = 1_700_000_000_000
	step        = 1000 // ms between points
)

// series is one modelled series. Point k has timestamp t0 + k*step and value
// ints[k%len] (int series) or flts[k%len] (float series), for every k >= 0.
type series struct {
	name  string
	float bool
	ints  []int64
	flts  []float64
	// vmin is the filter threshold: the series' 99th-percentile value over
	// the preloaded prefix, so a filter matches about 1% of a range.
	vmin int64
}

func tOf(k int) int64 { return t0 + int64(k)*step }

func (s *series) int(k int) int64 { return s.ints[k%len(s.ints)] }

func (s *series) flt(k int) float64 { return s.flts[k%len(s.flts)] }

// checksum folds one point into an order-sensitive hash.
func checksum(h uint64, t int64, v uint64) uint64 {
	const prime = 1099511628211
	h = (h ^ uint64(t)) * prime
	return (h ^ v) * prime
}

// answer is what a read returns, reduced to what the oracle compares.
type answer struct {
	count int
	sum   uint64 // checksum over (t, v) in time order
}

// scan is the expected answer of a raw scan of points [lo, hi).
func (s *series) scan(lo, hi int) answer {
	a := newAnswer()
	for k := lo; k < hi; k++ {
		a.add(tOf(k), s.bits(k))
	}
	return a
}

func (a *answer) add(t int64, v uint64) {
	a.count++
	a.sum = checksum(a.sum, t, v)
}

func newAnswer() answer { return answer{sum: 14695981039346656037} }

// bits is point k's value as the checksum sees it.
func (s *series) bits(k int) uint64 {
	if s.float {
		return math.Float64bits(s.flt(k))
	}
	return uint64(s.int(k))
}

// filter is the expected answer of a value filter v >= vmin over [lo, hi).
func (s *series) filter(lo, hi int) answer {
	a := newAnswer()
	for k := lo; k < hi; k++ {
		if v := s.int(k); v >= s.vmin {
			a.add(tOf(k), uint64(v))
		}
	}
	return a
}

// windows is the expected answer of a windowed aggregate over [lo, hi):
// one bucket per non-empty window of w points, anchored at point lo.
func (s *series) windows(lo, hi, w int) []pushdown.Bucket {
	var out []pushdown.Bucket
	for k := lo; k < hi; k += w {
		b := pushdown.Bucket{Start: tOf(k), Min: math.MaxInt64, Max: math.MinInt64}
		for j := k; j < k+w && j < hi; j++ {
			v := s.int(j)
			b.Count++
			b.Sum += v
			b.Min = min(b.Min, v)
			b.Max = max(b.Max, v)
		}
		out = append(out, b)
	}
	return out
}

// appendLines renders points [lo, hi) as line protocol.
func (s *series) appendLines(dst []byte, lo, hi int) []byte {
	for k := lo; k < hi; k++ {
		dst = append(dst, s.name...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, tOf(k), 10)
		dst = append(dst, ',')
		if s.float {
			n := len(dst)
			dst = strconv.AppendFloat(dst, s.flt(k), 'g', -1, 64)
			if !hasFloatSyntax(dst[n:]) {
				dst = append(dst, '.', '0')
			}
		} else {
			dst = strconv.AppendInt(dst, s.int(k), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// hasFloatSyntax reports whether a rendered value takes the line protocol's
// float path.
func hasFloatSyntax(b []byte) bool {
	for _, c := range b {
		if c == '.' || c == 'e' || c == 'E' {
			return true
		}
	}
	return false
}

// newModel builds the 80 series for a seed. Series i < 64 stores dataset
// i%12 as integers (float datasets at their decimal scaling); the 16 float
// series cycle through the six float datasets. prefix is the preloaded point
// count the filter thresholds are computed over.
func newModel(seed int64, prefix int) []*series {
	all := dataset.All()
	ints := make([][]int64, len(all))
	flts := make([][]float64, len(all))
	var floatIdx []int
	for i, d := range all {
		ints[i] = d.Ints(baseLen)
		if d.Float {
			flts[i] = d.Floats(baseLen)
			floatIdx = append(floatIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*series, numSeries)
	for i := range out {
		off := rng.Intn(baseLen - winLen)
		s := &series{name: "root.perf.s" + strconv.Itoa(100 + i)[1:]}
		if i < numSeries-floatSeries {
			s.ints = ints[i%len(all)][off : off+winLen]
			s.vmin = percentile99(s.ints[:min(prefix, winLen)])
		} else {
			s.float = true
			s.flts = flts[floatIdx[(i-(numSeries-floatSeries))%len(floatIdx)]][off : off+winLen]
		}
		out[i] = s
	}
	return out
}

func percentile99(vals []int64) int64 {
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}
