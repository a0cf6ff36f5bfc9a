package core

import (
	"bos/internal/bitio"
	"bos/internal/stats"
)

// PlanMedianPaper is Algorithm 3 exactly as the paper's pseudo-code states
// it: candidate costs are *estimated* from the thresholds alone — the lower
// class is assumed to span down to xmin, the upper class up to xmax, and the
// center is charged beta+1 bits (the symmetric window spans up to 2^(beta+1)
// values) — instead of resolving each candidate's actual class bounds the
// way PlanMedian does. The winning threshold pair is then resolved into an
// exact Plan for encoding.
//
// It exists as an ablation partner: PlanMedian (exact candidate costing)
// must never pick a worse plan than this estimate-based variant.
func PlanMedianPaper(vals []int64) Plan {
	n := len(vals)
	if n == 0 {
		return plainPlan(vals)
	}
	med := stats.Median(vals)

	var lowCnt, highCnt [maxBuckets]int
	xmin, xmax := vals[0], vals[0]
	for _, v := range vals {
		if v < xmin {
			xmin = v
		}
		if v > xmax {
			xmax = v
		}
		switch {
		case v > med:
			highCnt[bitio.WidthOf(spread(med, v))]++
		case v < med:
			lowCnt[bitio.WidthOf(spread(v, med))]++
		}
	}
	maxBeta := int(bitio.WidthOf(spread(xmin, xmax)))
	if maxBeta >= maxBuckets {
		maxBeta = maxBuckets - 1
	}

	bestCost := plainCost(n, xmin, xmax)
	bestBeta := -1
	dLow := spread(xmin, med)
	dHigh := spread(med, xmax)
	nl, nu := 0, 0
	for beta := maxBeta; beta >= 1 && beta < 64; beta-- {
		if b := beta + 1; b < maxBuckets {
			nl += lowCnt[b]
			nu += highCnt[b]
		}
		if nl == 0 && nu == 0 {
			continue
		}
		// Estimated widths per the pseudo-code: classes are bounded by
		// the thresholds (xl = med-2^beta, xu = med+2^beta), not their
		// actual extrema, and the center is charged its window width.
		off := uint64(1) << uint(beta)
		var cost int64
		if nl > 0 {
			var aSpread uint64
			if dLow > off {
				aSpread = dLow - off
			}
			cost += int64(nl) * int64(classWidth(aSpread)+1)
		}
		if nu > 0 {
			var gSpread uint64
			if dHigh > off {
				gSpread = dHigh - off
			}
			cost += int64(nu) * int64(classWidth(gSpread)+1)
		}
		cost += int64(n-nl-nu) * int64(beta+1) // center window estimate
		cost += int64(n)
		if cost < bestCost {
			bestCost = cost
			bestBeta = beta
		}
	}
	if bestBeta < 0 {
		return plainPlan(vals)
	}
	// Resolve the winning thresholds into an exact plan for encoding.
	plan := resolveThresholds(vals, med, uint(bestBeta))
	if !plan.Separated || plan.CostBits >= plainCost(n, xmin, xmax) {
		return plainPlan(vals)
	}
	return plan
}

// resolveThresholds computes the exact Plan for the symmetric thresholds
// (med-2^beta, med+2^beta) by one scan over the values. Comparisons run in
// the uint64 spread domain so the thresholds never overflow int64.
func resolveThresholds(vals []int64, med int64, beta uint) Plan {
	return resolveClasses(vals,
		func(v int64) bool { return v < med && spread(v, med) >= uint64(1)<<beta },
		func(v int64) bool { return v > med && spread(med, v) >= uint64(1)<<beta })
}

// resolveClasses builds the exact Plan for an arbitrary classification of
// values into lower outliers / upper outliers / center.
func resolveClasses(vals []int64, isLow, isHigh func(int64) bool) Plan {
	n := len(vals)
	p := Plan{N: n, Separated: true}
	var haveL, haveU, haveC bool
	var xmin, xmax int64
	for i, v := range vals {
		if i == 0 || v < xmin {
			xmin = v
		}
		if i == 0 || v > xmax {
			xmax = v
		}
	}
	p.Xmin, p.Xmax = xmin, xmax
	for _, v := range vals {
		switch {
		case isLow(v):
			p.NL++
			if !haveL || v > p.MaxXl {
				p.MaxXl = v
			}
			haveL = true
		case isHigh(v):
			p.NU++
			if !haveU || v < p.MinXu {
				p.MinXu = v
			}
			haveU = true
		default:
			if !haveC || v < p.MinXc {
				p.MinXc = v
			}
			if !haveC || v > p.MaxXc {
				p.MaxXc = v
			}
			haveC = true
		}
	}
	if p.NL == 0 && p.NU == 0 {
		return plainPlan(vals)
	}
	var cost int64
	if haveL {
		p.Alpha = classWidth(spread(xmin, p.MaxXl))
		cost += int64(p.NL) * int64(p.Alpha+1)
	}
	if haveU {
		p.Gamma = classWidth(spread(p.MinXu, xmax))
		cost += int64(p.NU) * int64(p.Gamma+1)
	}
	if haveC {
		p.Beta = classWidth(spread(p.MinXc, p.MaxXc))
		cost += int64(p.NC()) * int64(p.Beta)
	}
	p.CostBits = cost + int64(n)
	return p
}
