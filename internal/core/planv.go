package core

import "bos/internal/stats"

// PlanValue implements BOS-V (Algorithm 1): exact value separation. It
// enumerates every pair of distinct values as the lower and upper thresholds
// (xl, xu), plus the no-lower / no-upper sentinels, and returns the plan with
// the minimum storage cost. By Proposition 1 restricting thresholds to values
// of X preserves optimality. O(m^2) candidates over m distinct values, each
// scored in O(1).
//
// The returned plan is plain bit-packing when no separation beats
// Definition 1's cost, mirroring the Cmin initialization in Algorithm 1.
func PlanValue(vals []int64) Plan {
	if len(vals) == 0 {
		return plainPlan(vals)
	}
	d := stats.NewDistinct(vals)
	s := newPartitionSearch(d)
	m := len(d.Values)
	// i indexes the largest lower outlier (-1: none); j indexes the
	// smallest upper outlier (m: none). Any i < j is a valid partition;
	// (-1, m) separates nothing, which is the plain baseline.
	for i := -1; i < m; i++ {
		base, nl := s.row(i)
		if s.hopeless(base, nl) {
			break
		}
		jMax := m
		if i == -1 {
			jMax = m - 1
		}
		for j := i + 1; j <= jMax; j++ {
			s.try(i, j, base, nl)
		}
	}
	return s.plan(vals)
}
