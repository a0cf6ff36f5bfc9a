package core

// PlanBitWidthSampled runs the BOS-B planner over a deterministic stride
// sample of at most sampleSize values, then resolves the sampled plan's
// thresholds exactly against the full block. It trades the optimality
// guarantee for planning cost: on large blocks BOS-B's O(n log n) sort and
// O(m·W) candidate scan run over the sample only and the full block costs
// one O(n) classification pass, while the emitted plan still carries exact
// class bounds and true storage cost for the whole block (so encoding
// remains correct and the BP fallback comparison stays honest).
//
// This is an engineering extension beyond the paper: its Figure 15 keeps
// blocks at 1024 values where full planning is cheap; systems that want
// larger blocks can sample instead of paying the full search.
func PlanBitWidthSampled(vals []int64, sampleSize int) Plan {
	if sampleSize <= 0 {
		sampleSize = 1024
	}
	if len(vals) <= sampleSize {
		return PlanBitWidth(vals)
	}
	stride := (len(vals) + sampleSize - 1) / sampleSize
	sample := make([]int64, 0, sampleSize)
	for i := 0; i < len(vals); i += stride {
		sample = append(sample, vals[i])
	}
	sampled := PlanBitWidth(sample)
	if !sampled.Separated {
		return plainPlan(vals)
	}
	// Re-derive the partition on the full block from the sampled
	// thresholds: lower outliers <= sampled.MaxXl, upper >= sampled.MinXu
	// (whichever classes the sampled plan used).
	full := resolveBounds(vals, sampled)
	plain := plainPlan(vals)
	if !full.Separated || full.CostBits >= plain.CostBits {
		return plain
	}
	return full
}

// resolveBounds classifies the full block by the sampled plan's thresholds
// and computes exact class bounds, widths and cost.
func resolveBounds(vals []int64, sampled Plan) Plan {
	return resolveClasses(vals,
		func(v int64) bool { return sampled.NL > 0 && v <= sampled.MaxXl },
		func(v int64) bool { return sampled.NU > 0 && v >= sampled.MinXu })
}

// resolveClasses builds the exact Plan for an arbitrary classification of
// values into lower outliers / upper outliers / center, shared by the
// sampled and paper-pseudocode planners.
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
