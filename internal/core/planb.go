package core

import (
	"math/bits"

	"bos/internal/stats"
)

// PlanBitWidth implements BOS-B (Algorithm 2): exact bit-width separation.
// For every candidate lower threshold xl (each distinct value, plus "no lower
// outliers") it considers only the upper thresholds justified by
// Propositions 2 and 3:
//
//	xu = minXc + 2^beta   (Proposition 2, the beta <= gamma case)
//	xu = xmax - 2^gamma + 1  (Proposition 3, the beta > gamma case)
//
// for every feasible width, instead of every value of X. The propositions
// guarantee a candidate of one of these two shapes is never worse than any
// value-shaped solution with the same xl, so PlanBitWidth returns exactly the
// optimal cost found by PlanValue.
//
// Cost: O(n log n) to sort the block into its m distinct values, then
// O(m·W) candidates, W <= 64 being the bit-width of the block's range, each
// scored in O(1). Threshold indices need no search: the Proposition 3
// indices depend on gamma alone, and each Proposition 2 index only moves
// forward as xl grows, so locating them costs O(W·m) steps in all.
func PlanBitWidth(vals []int64) Plan {
	return planBitWidth(vals, true)
}

// PlanUpperOnly is the Figure 12 ablation: BOS-B with the lower-outlier loop
// disabled, i.e. only upper outliers may be separated (the PFOR regime).
func PlanUpperOnly(vals []int64) Plan {
	return planBitWidth(vals, false)
}

func planBitWidth(vals []int64, withLower bool) Plan {
	if len(vals) == 0 {
		return plainPlan(vals)
	}
	d := stats.NewDistinct(vals)
	s := newPartitionSearch(d)
	v := d.Values
	m := len(v)
	xmin, xmax := v[0], v[m-1]

	// The Proposition 3 thresholds xu = xmax - 2^gamma + 1 depend on gamma
	// alone. prop3 lists, for every gamma that leaves xu above xmin, the
	// index of the first distinct value >= xu, once per index: each entry
	// keeps the smallest gamma's offset 2^gamma - 1, which is what a row's
	// xu > minXc test reads.
	type prop3Entry struct {
		j   int
		off uint64
	}
	var prop3 [64]prop3Entry
	n3 := 0
	for j, gamma := m, 0; gamma < 64; gamma++ {
		off := uint64(1)<<gamma - 1
		if off >= spread(xmin, xmax) {
			break
		}
		xu := int64(uint64(xmax) - off)
		for v[j-1] >= xu {
			j--
		}
		if n3 == 0 || prop3[n3-1].j != j {
			prop3[n3] = prop3Entry{j, off}
			n3++
		}
	}
	// prop2[beta] is the index of the first distinct value >= minXc +
	// 2^beta at the last xl that used beta. minXc grows with xl, so the
	// index only moves forward.
	var prop2 [64]int

	iMax := m - 1
	if !withLower {
		iMax = -1
	}
	for i := -1; i <= iMax; i++ {
		base, nl := s.row(i)
		if s.hopeless(base, nl) {
			break
		}
		lo := i + 1 // the first center value
		if lo >= m {
			// All values would be lower outliers; xu has no room.
			s.try(i, m, base, nl)
			continue
		}
		sp := spread(v[lo], xmax)

		// No upper outliers at all.
		if i != -1 {
			s.try(i, m, base, nl)
		}
		// All values above xl are upper outliers (empty center).
		s.try(i, lo, base, nl)

		// Proposition 2 candidates: xu = minXc + 2^beta while xu <= xmax.
		// Every width whose xu is <= v[j] resolves to j again, and a
		// repeat cannot beat itself, so the next width tried is the first
		// whose xu passes v[j].
		for beta := 0; beta < 64 && uint64(1)<<beta <= sp; {
			xu := int64(uint64(v[lo]) + uint64(1)<<beta)
			j := max(prop2[beta], lo+1)
			for v[j] < xu {
				j++
			}
			prop2[beta] = j
			s.try(i, j, base, nl)
			beta = max(beta+1, bits.Len64(spread(v[lo], v[j])))
		}
		// Proposition 3 candidates: xu = xmax - 2^gamma + 1 while xu > minXc.
		for _, e := range prop3[:n3] {
			if e.off >= sp {
				break
			}
			s.try(i, e.j, base, nl)
		}
	}
	return s.plan(vals)
}
