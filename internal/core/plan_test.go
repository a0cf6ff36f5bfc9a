package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bos/internal/dataset"
	"bos/internal/stats"
	"bos/internal/ts2diff"
)

// introSeries is the motivating example from Section I of the paper.
var introSeries = []int64{3, 2, 4, 5, 3, 2, 0, 8}

func TestPlanValueIntroExample(t *testing.T) {
	// Separating the lower outlier 0 and the upper outlier 8 leaves the
	// center (3,2,4,5,3,2) at bit-width 2. The optimal cost is
	// 1*(1+1) + 1*(1+1) + 6*2 + 8 = 24 bits, versus 8*4 = 32 for BP.
	p := PlanValue(introSeries)
	if !p.Separated {
		t.Fatal("intro example should separate outliers")
	}
	if p.CostBits != 24 {
		t.Errorf("cost = %d want 24", p.CostBits)
	}
	if p.NL != 1 || p.NU != 1 {
		t.Errorf("nl=%d nu=%d want 1,1", p.NL, p.NU)
	}
	if p.Alpha != 1 || p.Beta != 2 || p.Gamma != 1 {
		t.Errorf("widths = %d/%d/%d want 1/2/1", p.Alpha, p.Beta, p.Gamma)
	}
	if p.MaxXl != 0 || p.MinXu != 8 || p.MinXc != 2 || p.MaxXc != 5 {
		t.Errorf("bounds = maxXl %d minXc %d maxXc %d minXu %d", p.MaxXl, p.MinXc, p.MaxXc, p.MinXu)
	}
}

func TestPlanBitWidthIntroExample(t *testing.T) {
	p := PlanBitWidth(introSeries)
	if p.CostBits != 24 {
		t.Errorf("BOS-B cost = %d want 24 (the BOS-V optimum)", p.CostBits)
	}
}

func TestPlanMedianIntroExample(t *testing.T) {
	p := PlanMedian(introSeries)
	// BOS-M restricted to symmetric thresholds around the median (3)
	// finds (-1, 7) and (2-like) candidates; its best is 26 bits —
	// between the optimum 24 and plain BP's 32.
	if !p.Separated {
		t.Fatal("BOS-M should separate on the intro example")
	}
	if p.CostBits != 26 {
		t.Errorf("BOS-M cost = %d want 26", p.CostBits)
	}
}

func TestPlanUpperOnlyIntroExample(t *testing.T) {
	p := PlanUpperOnly(introSeries)
	// Upper-only separation must keep 0 in the center. The best it can do
	// is upper = {4,5,8}: 3*(3+1) + 5*2 + 8 = 30 — still worse than the
	// two-sided optimum of 24.
	if p.CostBits != 30 {
		t.Errorf("upper-only cost = %d want 30", p.CostBits)
	}
	if p.NL != 0 {
		t.Errorf("upper-only plan separated %d lower outliers", p.NL)
	}
	if full := PlanBitWidth(introSeries); full.CostBits >= p.CostBits {
		t.Errorf("full BOS (%d) should beat upper-only (%d) here", full.CostBits, p.CostBits)
	}
}

func TestPlanPlainWhenUniform(t *testing.T) {
	// A perfectly uniform spread has no outliers worth separating: the
	// bitmap overhead (n bits) cannot be recovered.
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i)
	}
	for _, sep := range []Separation{SeparationValue, SeparationBitWidth, SeparationMedian, SeparationUpperOnly} {
		p := PlanFor(vals, sep)
		if p.Separated {
			t.Errorf("%v separated a uniform ramp (cost %d, plain %d)", sep, p.CostBits, plainCost(64, 0, 63))
		}
	}
}

func TestPlanConstant(t *testing.T) {
	vals := []int64{7, 7, 7, 7}
	for _, sep := range []Separation{SeparationNone, SeparationValue, SeparationBitWidth, SeparationMedian} {
		p := PlanFor(vals, sep)
		if p.Separated {
			t.Errorf("%v separated a constant block", sep)
		}
		if p.CostBits != 0 {
			t.Errorf("%v constant cost = %d want 0", sep, p.CostBits)
		}
	}
}

func TestPlanEmptyAndSingle(t *testing.T) {
	for _, sep := range []Separation{SeparationValue, SeparationBitWidth, SeparationMedian, SeparationUpperOnly} {
		if p := PlanFor(nil, sep); p.Separated || p.N != 0 {
			t.Errorf("%v empty plan = %+v", sep, p)
		}
		if p := PlanFor([]int64{42}, sep); p.Separated {
			t.Errorf("%v separated a single value", sep)
		}
	}
}

func TestFig1SeriesShape(t *testing.T) {
	if len(Fig1Series) != 100 {
		t.Fatalf("Fig1Series has %d values", len(Fig1Series))
	}
	// Example 1: with thresholds (620, 794) there are 5 lower and 4 upper
	// outliers and the bitmap costs n + nl + nu = 109 bits.
	nl, nu := 0, 0
	for _, v := range Fig1Series {
		if v <= 620 {
			nl++
		}
		if v >= 794 {
			nu++
		}
	}
	if nl != 5 || nu != 4 {
		t.Errorf("nl=%d nu=%d want 5,4", nl, nu)
	}
	if bitmap := len(Fig1Series) + nl + nu; bitmap != 109 {
		t.Errorf("bitmap bits = %d want 109", bitmap)
	}
}

func TestFig1PlansImprove(t *testing.T) {
	plain := plainCost(len(Fig1Series), 465, 935)
	v := PlanValue(Fig1Series)
	b := PlanBitWidth(Fig1Series)
	m := PlanMedian(Fig1Series)
	if !v.Separated {
		t.Fatal("BOS-V should separate on the Figure 1 series")
	}
	if v.CostBits >= plain {
		t.Errorf("BOS-V cost %d not better than plain %d", v.CostBits, plain)
	}
	if b.CostBits != v.CostBits {
		t.Errorf("BOS-B cost %d != BOS-V cost %d", b.CostBits, v.CostBits)
	}
	if m.CostBits < v.CostBits {
		t.Errorf("BOS-M cost %d beats the optimum %d", m.CostBits, v.CostBits)
	}
	if m.CostBits > plain {
		t.Errorf("BOS-M cost %d worse than plain %d", m.CostBits, plain)
	}
	// All nine engineered outliers should be separated by the optimum.
	if v.NL < 5 || v.NU < 4 {
		t.Errorf("BOS-V separated nl=%d nu=%d, want at least 5,4", v.NL, v.NU)
	}
}

// genSeries produces test series from a few qualitatively different
// distributions: the interesting regimes for outlier separation.
func genSeries(rng *rand.Rand) []int64 {
	n := rng.Intn(200) + 1
	vals := make([]int64, n)
	switch rng.Intn(6) {
	case 0: // pure normal-ish center
		for i := range vals {
			vals[i] = int64(rng.NormFloat64() * 50)
		}
	case 1: // center plus heavy two-sided outliers
		for i := range vals {
			switch r := rng.Float64(); {
			case r < 0.05:
				vals[i] = rng.Int63n(1 << 40)
			case r < 0.10:
				vals[i] = -rng.Int63n(1 << 40)
			default:
				vals[i] = int64(rng.NormFloat64() * 20)
			}
		}
	case 2: // uniform full int64
		for i := range vals {
			vals[i] = int64(rng.Uint64())
		}
	case 3: // small discrete alphabet (many duplicates)
		for i := range vals {
			vals[i] = int64(rng.Intn(4))
		}
	case 4: // constant with a single spike
		c := rng.Int63n(1000)
		for i := range vals {
			vals[i] = c
		}
		vals[rng.Intn(n)] = c + rng.Int63n(1<<30) + 1
	default: // clustered bimodal
		for i := range vals {
			base := int64(0)
			if rng.Intn(2) == 0 {
				base = 1 << 20
			}
			vals[i] = base + int64(rng.Intn(16))
		}
	}
	return vals
}

func TestBitWidthMatchesValueProperty(t *testing.T) {
	// Propositions 2 and 3: BOS-B must return exactly the optimal cost
	// found by the exhaustive BOS-V search.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		vals := genSeries(rng)
		v := PlanValue(vals)
		b := PlanBitWidth(vals)
		if v.CostBits != b.CostBits {
			t.Fatalf("iter %d: BOS-V=%d BOS-B=%d on %v", iter, v.CostBits, b.CostBits, vals)
		}
	}
}

func TestMedianNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		vals := genSeries(rng)
		m := PlanMedian(vals)
		v := PlanValue(vals)
		plain := plainPlan(vals)
		if m.CostBits > plain.CostBits {
			t.Fatalf("iter %d: BOS-M %d worse than plain %d", iter, m.CostBits, plain.CostBits)
		}
		if m.CostBits < v.CostBits {
			t.Fatalf("iter %d: BOS-M %d beats the optimum %d", iter, m.CostBits, v.CostBits)
		}
	}
}

func TestUpperOnlyBracketsFullBOS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		vals := genSeries(rng)
		u := PlanUpperOnly(vals)
		full := PlanBitWidth(vals)
		plain := plainPlan(vals)
		if u.CostBits < full.CostBits {
			t.Fatalf("iter %d: upper-only %d beats full BOS %d", iter, u.CostBits, full.CostBits)
		}
		if u.CostBits > plain.CostBits {
			t.Fatalf("iter %d: upper-only %d worse than plain %d", iter, u.CostBits, plain.CostBits)
		}
		if u.NL != 0 {
			t.Fatalf("iter %d: upper-only separated %d lower outliers", iter, u.NL)
		}
	}
}

// TestPartitionSearchMatchesPartitionCost checks the planners' scorer
// against partitionCost, the Plan builder, on every partition (i, j) of
// varied blocks: same CostBits, same NL+NU.
func TestPartitionSearchMatchesPartitionCost(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		vals := genSeries(rng)
		d := stats.NewDistinct(vals)
		m := len(d.Values)
		s := newPartitionSearch(d)
		for i := -1; i < m; i++ {
			base, nl := s.row(i)
			for j := i + 1; j <= m; j++ {
				s.cost, s.j = math.MaxInt64, -1 // keep whatever is tried next
				s.try(i, j, base, nl)
				p := partitionCost(d, i, j)
				if s.cost != p.CostBits || s.out != p.NL+p.NU || s.i != i || s.j != j {
					t.Fatalf("iter %d (%d,%d): scored cost %d out %d, partitionCost %d out %d",
						iter, i, j, s.cost, s.out, p.CostBits, p.NL+p.NU)
				}
			}
		}
	}
}

// upperOnlyOracle is the exact upper-only optimum by brute force: the
// cheaper of the plain plan and every split of the distinct values into a
// center d.Values[:j] and upper outliers d.Values[j:].
func upperOnlyOracle(vals []int64) int64 {
	best := plainPlan(vals).CostBits
	if len(vals) == 0 {
		return best
	}
	d := stats.NewDistinct(vals)
	for j := 0; j < len(d.Values); j++ {
		best = min(best, partitionCost(d, -1, j).CostBits)
	}
	return best
}

// TestUpperOnlyExact checks BOS-U against the brute-force upper-only
// optimum: Propositions 2 and 3 hold for the single lower threshold "none"
// just as for every other.
func TestUpperOnlyExact(t *testing.T) {
	check := func(vals []int64) {
		t.Helper()
		u := PlanUpperOnly(vals)
		if want := upperOnlyOracle(vals); u.CostBits != want || u.NL != 0 {
			t.Fatalf("BOS-U cost %d nl %d, oracle %d, on %v", u.CostBits, u.NL, want, vals)
		}
	}
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 1000; iter++ {
		check(genSeries(rng))
	}
	for _, rate := range ratePermille {
		for _, beta := range rateWidths {
			check(rateSeries(rate, beta))
		}
	}
	checked := 0
	sweepSmallUniverse(func(vals []int64) { check(vals); checked++ })
	t.Logf("checked %d small-universe series", checked)
}

func TestPlanExtremeRange(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 3, 2, 5, 4, 2, 3, 3}
	v := PlanValue(vals)
	b := PlanBitWidth(vals)
	if v.CostBits != b.CostBits {
		t.Errorf("extreme range: BOS-V=%d BOS-B=%d", v.CostBits, b.CostBits)
	}
	if !v.Separated {
		t.Error("extreme range should separate")
	}
	m := PlanMedian(vals)
	if m.CostBits > plainPlan(vals).CostBits {
		t.Errorf("BOS-M %d worse than plain on extreme range", m.CostBits)
	}
}

// MedianApproxRatioNormal checks the Proposition 4 flavor of guarantee
// empirically: on normal data the BOS-M cost stays within a small factor of
// the optimum.
func TestMedianApproxRatioNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sigma := range []float64{1, 1.67, 5, 40, 300} {
		worst := 1.0
		for iter := 0; iter < 20; iter++ {
			vals := make([]int64, 512)
			for i := range vals {
				vals[i] = int64(rng.NormFloat64() * sigma)
			}
			opt := PlanValue(vals).CostBits
			approx := PlanMedian(vals).CostBits
			if opt == 0 {
				continue
			}
			if r := float64(approx) / float64(opt); r > worst {
				worst = r
			}
		}
		// Proposition 4 bounds the ratio by 2 for sigma <= 5/3 and
		// ceil(log2(3*sigma-1)) otherwise (with prob. 0.997); allow
		// the same order of slack.
		bound := 2.0
		if sigma > 5.0/3.0 {
			bound = math.Ceil(math.Log2(3*sigma - 1))
		}
		if worst > bound {
			t.Errorf("sigma=%v: worst ratio %.3f exceeds bound %.1f", sigma, worst, bound)
		}
	}
}

func BenchmarkPlanValue1024(b *testing.B)    { benchPlan(b, SeparationValue) }
func BenchmarkPlanBitWidth1024(b *testing.B) { benchPlan(b, SeparationBitWidth) }
func BenchmarkPlanMedian1024(b *testing.B)   { benchPlan(b, SeparationMedian) }

// BenchmarkPlanBitWidth plans the blocks the engine plans: each dataset
// stand-in as raw values (an int chunk's value column) and as TS2DIFF deltas
// (its time column, and the TS2DIFF+BOS codecs), at the engine's flush chunk
// size (500) and the block size of compacted chunks (1024). Each op plans the
// next of eight consecutive blocks.
func BenchmarkPlanBitWidth(b *testing.B) {
	const blocks = 8
	for _, d := range dataset.All() {
		for _, size := range []int{500, 1024} {
			raw := d.Ints(size * blocks)
			for _, form := range []struct {
				name string
				vals []int64
			}{{"raw", raw}, {"delta", ts2diff.Deltas(raw)}} {
				b.Run(fmt.Sprintf("%s/%d/%s", d.Abbr, size, form.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						off := i % blocks * size
						benchPlanSink = PlanBitWidth(form.vals[off : off+size])
					}
				})
			}
		}
	}
}

// benchPlanSink keeps the benchmarked planner calls from being optimized away.
var benchPlanSink Plan

func benchPlan(b *testing.B, sep Separation) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 1024)
	for i := range vals {
		if rng.Float64() < 0.05 {
			vals[i] = rng.Int63n(1 << 30)
		} else {
			vals[i] = int64(rng.NormFloat64() * 100)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PlanFor(vals, sep)
	}
}

func TestMedianApproxBoundNormal(t *testing.T) {
	if got := MedianApproxBoundNormal(1.0); got != 2 {
		t.Errorf("bound(1) = %v", got)
	}
	if got := MedianApproxBoundNormal(5.0 / 3.0); got != 2 {
		t.Errorf("bound(5/3) = %v", got)
	}
	if got := MedianApproxBoundNormal(40); got != math.Ceil(math.Log2(119)) {
		t.Errorf("bound(40) = %v", got)
	}
	// The bound must be monotone non-decreasing past the knee.
	prev := 0.0
	for s := 2.0; s < 1000; s *= 2 {
		b := MedianApproxBoundNormal(s)
		if b < prev {
			t.Fatalf("bound not monotone at sigma=%v", s)
		}
		prev = b
	}
}
