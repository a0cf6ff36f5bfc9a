package tsfile

import "fmt"

// Aggregate is the result of an aggregation query over one series.
type Aggregate struct {
	Count    int
	Min, Max int64
	Sum      int64 // wrapping on overflow, like SQL engines over int64
}

// Aggregate computes count/min/max/sum over [minT, maxT] for a series. It is
// the classic statistics-pushdown: chunks entirely inside the time range
// contribute their footer statistics for count/min/max without being read,
// and only the boundary chunks — plus any chunk at all when a sum is needed
// beyond what statistics carry — are decoded.
//
// Count, Min and Max come from the footer alone when the range covers whole
// chunks. Sum comes from the footer too for chunks written with v2 stats;
// fully-covered chunks of older files are decoded only when sums are
// requested via needSum.
func (r *Reader) Aggregate(series string, minT, maxT int64, needSum bool) (Aggregate, error) {
	chunks, ok := r.index[series]
	if !ok {
		return Aggregate{}, fmt.Errorf("%w: %q", ErrNoSeries, series)
	}
	var agg Aggregate
	first := true
	add := func(v int64) {
		if first || v < agg.Min {
			agg.Min = v
		}
		if first || v > agg.Max {
			agg.Max = v
		}
		first = false
	}
	for ci, m := range chunks {
		if m.MaxT < minT || m.MinT > maxT {
			continue
		}
		covered := m.MinT >= minT && m.MaxT <= maxT
		if covered && (!needSum || m.HasStats) {
			// Pushdown: statistics answer count/min/max directly, and the
			// v2 footer sum covers needSum without touching the chunk.
			agg.Count += m.Count
			add(m.MinV)
			add(m.MaxV)
			agg.Sum = int64(uint64(agg.Sum) + uint64(m.Sum))
			continue
		}
		times, vals, err := readChunk[int64](r, series, ci, m)
		if err != nil {
			return Aggregate{}, err
		}
		for i, t := range times {
			if t < minT || t > maxT {
				continue
			}
			agg.Count++
			add(vals[i])
			agg.Sum = int64(uint64(agg.Sum) + uint64(vals[i]))
		}
	}
	return agg, nil
}
