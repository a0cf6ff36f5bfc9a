package core

import (
	"testing"

	"bos/internal/bitio"
	"bos/internal/stats"
)

// bruteForceCost evaluates Definition 5 directly for every integer threshold
// pair (xl, xu) with xl < xu over [xmin-1, xmax+1], with no shortcuts — an
// independent oracle for the optimal storage cost.
func bruteForceCost(vals []int64) int64 {
	s := stats.Summarize(vals)
	best := plainCost(len(vals), s.Min, s.Max)
	for xl := s.Min - 1; xl <= s.Max; xl++ {
		for xu := xl + 1; xu <= s.Max+1; xu++ {
			if xl < s.Min && xu > s.Max {
				continue // no separation: the plain baseline
			}
			if c := bruteCost(vals, xl, xu); c < best {
				best = c
			}
		}
	}
	return best
}

// bruteCost is Definition 5 computed from scratch for one threshold pair.
func bruteCost(vals []int64, xl, xu int64) int64 {
	var (
		nl, nu, nc                 int
		maxXl, minXu, minXc, maxXc int64
		haveL, haveU, haveC        bool
	)
	var xmin, xmax int64
	for i, v := range vals {
		if i == 0 || v < xmin {
			xmin = v
		}
		if i == 0 || v > xmax {
			xmax = v
		}
		switch {
		case v <= xl:
			nl++
			if !haveL || v > maxXl {
				maxXl = v
			}
			haveL = true
		case v >= xu:
			nu++
			if !haveU || v < minXu {
				minXu = v
			}
			haveU = true
		default:
			nc++
			if !haveC || v < minXc {
				minXc = v
			}
			if !haveC || v > maxXc {
				maxXc = v
			}
			haveC = true
		}
	}
	var cost int64
	if haveL {
		w := bitio.WidthOf(uint64(maxXl) - uint64(xmin))
		if w < 1 {
			w = 1
		}
		cost += int64(nl) * int64(w+1)
	}
	if haveU {
		w := bitio.WidthOf(uint64(xmax) - uint64(minXu))
		if w < 1 {
			w = 1
		}
		cost += int64(nu) * int64(w+1)
	}
	if haveC {
		w := bitio.WidthOf(uint64(maxXc) - uint64(minXc))
		if w < 1 {
			w = 1
		}
		cost += int64(nc) * int64(w)
	}
	return cost + int64(len(vals))
}

// TestExhaustiveSmallUniverse sweeps every series of length 1..4 over a
// 5-value alphabet (plus all length-5 series over a 4-value alphabet) and
// checks, against the brute-force oracle, that (a) BOS-V is optimal and
// (b) BOS-B matches BOS-V exactly — Propositions 1-3 on the full space.
func TestExhaustiveSmallUniverse(t *testing.T) {
	alphabet := []int64{0, 1, 2, 5, 13}
	var sweep func(prefix []int64, depth int, alpha []int64)
	checked := 0
	sweep = func(prefix []int64, depth int, alpha []int64) {
		if len(prefix) > 0 {
			v := PlanValue(prefix)
			b := PlanBitWidth(prefix)
			oracle := bruteForceCost(prefix)
			// A non-separated plan carries the plain Definition 1 cost.
			vCost, bCost := v.CostBits, b.CostBits
			if vCost != oracle {
				t.Fatalf("BOS-V %d != oracle %d on %v", vCost, oracle, prefix)
			}
			if bCost != vCost {
				t.Fatalf("BOS-B %d != BOS-V %d on %v", bCost, vCost, prefix)
			}
			checked++
		}
		if depth == 0 {
			return
		}
		for _, a := range alpha {
			sweep(append(prefix, a), depth-1, alpha)
		}
	}
	sweep(nil, 4, alphabet)
	sweep(nil, 5, []int64{0, 3, 4, 11})
	t.Logf("checked %d series exhaustively", checked)
}

// sweepSmallUniverse calls fn on the series TestExhaustiveSmallUniverse
// covers: every series of length 1..4 over a 5-value alphabet and every
// length-5 series over a 4-value alphabet. fn must not retain its argument.
func sweepSmallUniverse(fn func([]int64)) {
	var sweep func(prefix []int64, depth int, alpha []int64)
	sweep = func(prefix []int64, depth int, alpha []int64) {
		if len(prefix) > 0 {
			fn(prefix)
		}
		if depth == 0 {
			return
		}
		for _, a := range alpha {
			sweep(append(prefix, a), depth-1, alpha)
		}
	}
	sweep(nil, 4, []int64{0, 1, 2, 5, 13})
	sweep(nil, 5, []int64{0, 3, 4, 11})
}

// TestBruteOracleAgreesOnIntro pins the oracle itself to the hand-computed
// intro example so the oracle and the planners cannot drift together.
func TestBruteOracleAgreesOnIntro(t *testing.T) {
	if got := bruteForceCost([]int64{3, 2, 4, 5, 3, 2, 0, 8}); got != 24 {
		t.Fatalf("oracle = %d want 24", got)
	}
}
