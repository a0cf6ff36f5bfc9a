// Package core implements Bit-packing with Outlier Separation (BOS), the
// primary contribution of the paper (Sections III–VII): the storage-cost
// model of Definition 5, the three planners — exact value separation BOS-V
// (Algorithm 1), exact bit-width separation BOS-B (Algorithm 2), and the
// linear-time approximate median separation BOS-M (Algorithm 3) — the
// upper-only ablation of Figure 12, the k-parts generalization of Figure 14,
// and the self-describing block format of Figure 7.
package core

import (
	"bos/internal/bitio"
	"bos/internal/stats"
)

// Separation identifies which planner picks the outlier thresholds.
type Separation int

const (
	// SeparationNone disables outlier separation: plain bit-packing
	// (Definition 1).
	SeparationNone Separation = iota
	// SeparationValue is BOS-V: exact O(n^2) enumeration of value pairs,
	// each scored in O(1).
	SeparationValue
	// SeparationBitWidth is BOS-B: exact bit-width enumeration, an
	// O(n log n) sort plus O(m·W) candidates scored in O(1) each (m
	// distinct values, W the range's bit-width).
	SeparationBitWidth
	// SeparationMedian is BOS-M: approximate O(n) median+bit-width search.
	SeparationMedian
	// SeparationUpperOnly is BOS-B restricted to upper outliers, the
	// PFOR-style ablation of Figure 12.
	SeparationUpperOnly
)

// String returns the paper's name for the separation strategy.
func (s Separation) String() string {
	switch s {
	case SeparationNone:
		return "BP"
	case SeparationValue:
		return "BOS-V"
	case SeparationBitWidth:
		return "BOS-B"
	case SeparationMedian:
		return "BOS-M"
	case SeparationUpperOnly:
		return "BOS-U"
	default:
		return "BOS-?"
	}
}

// Plan is a fully resolved outlier separation for one block: the class
// boundaries, counts, bit-widths and the exact storage cost of Definition 5.
// A Plan with Separated == false represents plain bit-packing.
type Plan struct {
	N         int
	Separated bool

	// Class boundaries. Lower outliers are values <= MaxXl (valid when
	// NL > 0), upper outliers are values >= MinXu (valid when NU > 0);
	// everything else is a center value in [MinXc, MaxXc].
	Xmin, Xmax   int64
	MaxXl, MinXu int64
	MinXc, MaxXc int64
	NL, NU       int

	// Bit-widths: Alpha for lower outliers, Beta for center values, Gamma
	// for upper outliers (Figure 1). A width is 0 only when its class is
	// empty.
	Alpha, Beta, Gamma uint

	// CostBits is the body cost in bits: Definition 5 for a separated
	// plan (values + positional bitmap), or n*ceil(log2(range+1)) for the
	// plain plan.
	CostBits int64
}

// NC returns the number of center values.
func (p *Plan) NC() int { return p.N - p.NL - p.NU }

// classWidth is the bit-width of a non-empty class spanning `spread`
// (max-min, computed wrap-safe as uint64). The paper pins the minimum class
// width at 1 ("if maxXl = xmin, the first term of C is 2nl"; "if maxXc =
// minXc, the third term is (n-nl-nu)"). Setting the low bit leaves the
// width of a non-zero spread unchanged and makes a zero spread's width 1.
func classWidth(spread uint64) uint {
	return bitio.WidthOf(spread | 1)
}

// spread returns hi-lo as uint64, valid for any int64 pair with hi >= lo.
func spread(lo, hi int64) uint64 {
	return uint64(hi) - uint64(lo)
}

// plainCost is Definition 1: n * ceil(log2(xmax-xmin+1)) bits.
func plainCost(n int, xmin, xmax int64) int64 {
	return int64(n) * int64(bitio.WidthOf(spread(xmin, xmax)))
}

// plainPlan builds the no-separation Plan for a block.
func plainPlan(vals []int64) Plan {
	s := stats.Summarize(vals)
	return Plan{
		N:        s.N,
		Xmin:     s.Min,
		Xmax:     s.Max,
		MinXc:    s.Min,
		MaxXc:    s.Max,
		Beta:     bitio.WidthOf(spread(s.Min, s.Max)),
		CostBits: plainCost(s.N, s.Min, s.Max),
	}
}

// partitionCost evaluates Definition 5 (via the cumulative-count form of
// Formula 7) for the partition of d into lower outliers d.Values[0..i],
// upper outliers d.Values[j..m-1] and center values in between. i == -1
// means no lower outliers; j == len(d.Values) means no upper outliers.
// It returns the cost in bits and the resolved Plan. It is the only place a
// Plan is built from a partition (i, j); the exact planners score their
// candidates with partitionSearch and resolve only the winner here.
func partitionCost(d *stats.Distinct, i, j int) Plan {
	m := len(d.Values)
	n := d.N
	p := Plan{
		N:         n,
		Separated: true,
		Xmin:      d.Values[0],
		Xmax:      d.Values[m-1],
	}
	var cost int64
	if i >= 0 {
		p.NL = d.CumLE[i]
		p.MaxXl = d.Values[i]
		p.Alpha = classWidth(spread(p.Xmin, p.MaxXl))
		cost += int64(p.NL) * int64(p.Alpha+1)
	}
	if j < m {
		cu := 0
		if j > 0 {
			cu = d.CumLE[j-1]
		}
		p.NU = n - cu
		p.MinXu = d.Values[j]
		p.Gamma = classWidth(spread(p.MinXu, p.Xmax))
		cost += int64(p.NU) * int64(p.Gamma+1)
	}
	if nc := p.NC(); nc > 0 {
		p.MinXc = d.Values[i+1]
		p.MaxXc = d.Values[j-1]
		p.Beta = classWidth(spread(p.MinXc, p.MaxXc))
		cost += int64(nc) * int64(p.Beta)
	}
	cost += int64(n) // first-level bitmap bit per value
	p.CostBits = cost
	return p
}

// partitionSearch scores partitions (i, j) of one block's distinct values,
// with partitionCost's meaning of i and j, as bare int64 costs and keeps the
// best under better()'s order. A score is a few table reads and one
// bits.Len64 (the center width); no Plan is built until the search ends.
type partitionSearch struct {
	d *stats.Distinct
	// cuts[j], for j in [0, m], is the part of a score fixed by j.
	cuts []cut

	// The best so far: its cost, its NL+NU and its partition (i, j).
	// j stays -1 while the plain plan, which has no outliers, is best.
	cost int64
	out  int
	i, j int
}

// cut is the part of a partition's score fixed by its upper threshold j:
// the number of values below d.Values[j] (n at j == m) and the cost of the
// upper class d.Values[j:] (0 at j == m).
type cut struct {
	below int
	upper int64
}

// newPartitionSearch precomputes the per-j table of d; the search starts
// from the plain plan's cost.
func newPartitionSearch(d *stats.Distinct) partitionSearch {
	v, n := d.Values, d.N
	m := len(v)
	cuts := make([]cut, m+1)
	for j := 0; j < m; j++ {
		below := 0
		if j > 0 {
			below = d.CumLE[j-1]
		}
		gamma := classWidth(spread(v[j], v[m-1]))
		cuts[j] = cut{below: below, upper: int64(n-below) * int64(gamma+1)}
	}
	cuts[m] = cut{below: n}
	return partitionSearch{d: d, cuts: cuts, cost: plainCost(n, v[0], v[m-1]), j: -1}
}

// row returns the part of a score fixed by the lower threshold i: the
// lower-class cost plus the bitmap's n bits, and NL.
func (s *partitionSearch) row(i int) (base int64, nl int) {
	base = int64(s.d.N)
	if i >= 0 {
		nl = s.d.CumLE[i]
		base += int64(nl) * int64(classWidth(spread(s.d.Values[0], s.d.Values[i]))+1)
	}
	return base, nl
}

// hopeless reports, from (base, nl) = row(i), that no partition with lower
// threshold i or a higher one can beat the best so far. Every value above xl
// costs at least one bit more than base counts (a center value at least 1,
// an upper outlier at least 2), so base+n-nl bounds the row from below; that
// bound is 2n+NL*alpha, which grows with i, while the best only falls.
func (s *partitionSearch) hopeless(base int64, nl int) bool {
	return base+int64(s.d.N-nl) > s.cost
}

// try scores partition (i, j) from (base, nl) = row(i) and keeps it when it
// beats the best so far as better() orders Plans: a lower cost, or an equal
// cost with fewer outliers. The first of equal candidates stays best, so
// trying one partition twice never changes the outcome.
func (s *partitionSearch) try(i, j int, base int64, nl int) {
	c := s.cuts[j]
	cost := base + c.upper
	if nc := c.below - nl; nc > 0 {
		cost += int64(nc) * int64(classWidth(spread(s.d.Values[i+1], s.d.Values[j-1])))
	}
	if out := nl + s.d.N - c.below; cost < s.cost || cost == s.cost && out < s.out {
		s.cost, s.out, s.i, s.j = cost, out, i, j
	}
}

// plan resolves the best partition, or returns the plain plan of vals (the
// block d was built from) when no candidate beat it.
func (s *partitionSearch) plan(vals []int64) Plan {
	if s.j < 0 {
		return plainPlan(vals)
	}
	return partitionCost(s.d, s.i, s.j)
}

// better reports whether candidate (i, j) improves on the best cost so far,
// preferring fewer separated outliers on ties (cheaper headers, faster
// decode).
func better(cand, best *Plan) bool {
	if cand.CostBits != best.CostBits {
		return cand.CostBits < best.CostBits
	}
	return cand.NL+cand.NU < best.NL+best.NU
}
