// Package stats implements the order-statistic and distribution tools used by
// the BOS planners and the experiment harness: an expected-O(n) QuickSelect
// (Hoare's Find, the median routine Algorithm 3 of the paper relies on),
// cumulative counts over sorted distinct values (Definition 6), and simple
// histogram / moment summaries for reproducing Figure 8.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Median returns the lower median of vals using QuickSelect in expected O(n)
// time. vals is not modified. Median panics on an empty slice, mirroring the
// contract of the paper's FindMedian (a block always has at least one value).
func Median(vals []int64) int64 {
	if len(vals) == 0 {
		panic("stats: median of empty slice")
	}
	work := make([]int64, len(vals))
	copy(work, vals)
	return QuickSelect(work, (len(work)-1)/2)
}

// QuickSelect rearranges work in place and returns the k-th smallest element
// (0-based). It uses median-of-three pivoting with a fallback to guarantee
// progress on pathological inputs.
func QuickSelect(work []int64, k int) int64 {
	lo, hi := 0, len(work)-1
	for lo < hi {
		p := partition(work, lo, hi)
		switch {
		case k == p:
			return work[p]
		case k < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return work[lo]
}

// partition chooses a median-of-three pivot and partitions work[lo:hi+1],
// returning the pivot's final index.
func partition(work []int64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Sort lo, mid, hi so work[mid] is the median of the three.
	if work[mid] < work[lo] {
		work[mid], work[lo] = work[lo], work[mid]
	}
	if work[hi] < work[lo] {
		work[hi], work[lo] = work[lo], work[hi]
	}
	if work[hi] < work[mid] {
		work[hi], work[mid] = work[mid], work[hi]
	}
	pivot := work[mid]
	work[mid], work[hi-1] = work[hi-1], work[mid]
	if hi-lo < 2 {
		return lo
	}
	i := lo
	for j := lo; j < hi-1; j++ {
		if work[j] < pivot {
			work[i], work[j] = work[j], work[i]
			i++
		}
	}
	work[i], work[hi-1] = work[hi-1], work[i]
	return i
}

// Distinct holds the sorted distinct values of a series together with the
// cumulative counts of Definition 6: for distinct value Values[i],
// CumLE[i] = |{x : x <= Values[i]}| and the strict count |{x : x < Values[i]}|
// equals CumLE[i-1] (0 for i == 0).
type Distinct struct {
	Values []int64
	CumLE  []int
	N      int
}

// NewDistinct computes the sorted distinct values and cumulative counts of
// vals in O(n log n). It allocates the sorted copy, which it deduplicates in
// place into Values, and CumLE, sized for the worst case of n distinct
// values, so the scan never grows a slice.
func NewDistinct(vals []int64) *Distinct {
	n := len(vals)
	sorted := make([]int64, n)
	copy(sorted, vals)
	slices.Sort(sorted)
	cum := make([]int, 0, n)
	m := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		sorted[m] = sorted[i]
		m++
		cum = append(cum, j)
		i = j
	}
	return &Distinct{Values: sorted[:m], CumLE: cum, N: n}
}

// CountLE returns |{x : x <= v}| by binary search.
func (d *Distinct) CountLE(v int64) int {
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] > v })
	if i == 0 {
		return 0
	}
	return d.CumLE[i-1]
}

// CountLT returns |{x : x < v}| by binary search.
func (d *Distinct) CountLT(v int64) int {
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] >= v })
	if i == 0 {
		return 0
	}
	return d.CumLE[i-1]
}

// MaxLE returns the largest distinct value <= v and whether one exists.
func (d *Distinct) MaxLE(v int64) (int64, bool) {
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] > v })
	if i == 0 {
		return 0, false
	}
	return d.Values[i-1], true
}

// MinGE returns the smallest distinct value >= v and whether one exists.
func (d *Distinct) MinGE(v int64) (int64, bool) {
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] >= v })
	if i == len(d.Values) {
		return 0, false
	}
	return d.Values[i], true
}

// Summary holds the basic moments of a series.
type Summary struct {
	N         int
	Min, Max  int64
	Mean, Std float64
}

// Summarize computes min, max, mean and standard deviation in one pass.
func Summarize(vals []int64) Summary {
	s := Summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	var sum float64
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += float64(v)
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range vals {
		d := float64(v) - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// Histogram divides [min, max] into the given number of equal-width bins and
// counts values per bin. It reproduces the Figure 8 frequency plots in text
// form.
type Histogram struct {
	Min, Max int64
	Width    float64
	Counts   []int
}

// NewHistogram builds a histogram with bins buckets over vals. It returns an
// empty histogram when vals is empty; bins must be positive.
func NewHistogram(vals []int64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	h := &Histogram{Counts: make([]int, bins)}
	if len(vals) == 0 {
		return h
	}
	s := Summarize(vals)
	h.Min, h.Max = s.Min, s.Max
	span := float64(s.Max) - float64(s.Min)
	if span <= 0 {
		h.Counts[0] = len(vals)
		h.Width = 1
		return h
	}
	h.Width = span / float64(bins)
	for _, v := range vals {
		i := int(float64(v-s.Min) / span * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h
}

// Mode returns the index of the most populated bin.
func (h *Histogram) Mode() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}
