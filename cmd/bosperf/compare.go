package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles prints, per workload, each end-to-end metric's median and
// quartiles on both sides with a verdict, and the per-layer medians of
// traced runs with their deltas. Runs pair up in file order, so record the
// two sides alternately. The verdict follows the repository's rule for a
// claimed gain: at least ten pairs, the new side better in at least nine of
// ten, and a median gap wider than the old side's interquartile range.
// "worse" means the new median is worse by more than the metric's bound;
// a side whose spread exceeds the bound leaves the metric "unresolved"
// unless every new run beats every old one. Each op kind's p50 and p95 get
// a verdict of their own below the end-to-end metrics.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare wants two report files: old.jsonl new.jsonl")
	}
	old, err := readReports(args[0])
	if err != nil {
		return err
	}
	cur, err := readReports(args[1])
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			a, b := pick(old, wl, traced), pick(cur, wl, traced)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			fmt.Fprintf(w, "%s (%s): old %d runs, new %d runs\n", wl, map[bool]string{false: "end to end", true: "per layer"}[traced], len(a), len(b))
			for _, m := range table {
				x, y := metricValues(a, m.Name, traced), metricValues(b, m.Name, traced)
				compareLine(w, m.Name, x, y, m, !traced)
			}
			if traced {
				compareLayers(w, a, b)
			} else {
				compareOps(w, a, b)
			}
		}
	}
	return nil
}

// compareLine prints one metric's quartiles on both sides and, when judged,
// the pairs won and the verdict.
func compareLine(w io.Writer, name string, x, y []float64, m metric, judge bool) {
	fmt.Fprintf(w, "  %-30s %s  ->  %s  %+7.2f%%", name, quart(x), quart(y), 100*(median(y)/median(x)-1))
	if judge {
		wins, pairs := winsOf(x, y, m.Better)
		fmt.Fprintf(w, "  wins %d/%d  %s", wins, pairs, verdict(x, y, m))
	}
	fmt.Fprintln(w)
}

// compareOps judges each timed op kind's p50 and p95 on its own, both with
// the bound of p50_ms: p50_ms combines the op kinds, so a slower kind offset
// by a faster one would read "no change" there, and no tail is an end-to-end
// metric. Where the host's share of the CPU varies, a tail reads
// "unresolved".
func compareOps(w io.Writer, a, b []*report) {
	var bound metric
	for _, m := range endToEnd {
		if m.Name == "p50_ms" {
			bound = m
		}
	}
	for _, op := range []string{opIngest, opScan, opWindow, opFilter} {
		for _, q := range []struct {
			name string
			get  func(opSummary) float64
		}{{"p50_ms", func(o opSummary) float64 { return o.P50Ms }}, {"p95_ms", func(o opSummary) float64 { return o.P95Ms }}} {
			x, y := opValues(a, op, q.get), opValues(b, op, q.get)
			if len(x) == len(a) && len(y) == len(b) {
				compareLine(w, op+"."+q.name, x, y, bound, true)
			}
		}
	}
}

// opValues is one statistic of op kind op in every run that timed it.
func opValues(rs []*report, op string, get func(opSummary) float64) []float64 {
	var out []float64
	for _, r := range rs {
		for _, o := range r.Ops {
			if o.Op == op && o.Samples > 0 {
				out = append(out, get(o))
			}
		}
	}
	return out
}

// compareLayers prints the median self time of every (op, layer) pair.
func compareLayers(w io.Writer, a, b []*report) {
	keys := map[string]bool{}
	collect := func(rs []*report) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range rs {
			for _, o := range r.Layers {
				for l, v := range o.Self {
					k := o.Op + " " + l
					keys[k] = true
					out[k] = append(out[k], v)
				}
			}
		}
		return out
	}
	x, y := collect(a), collect(b)
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		fmt.Fprintf(w, "  self %-26s %10.4f ms -> %10.4f ms  %+7.2f%%\n", k, median(x[k]), median(y[k]), 100*(median(y[k])/median(x[k])-1))
	}
}

func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &report{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func pick(rs []*report, workload string, traced bool) []*report {
	var out []*report
	for _, r := range rs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(rs []*report, name string, traced bool) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		vals := r.EndToEnd
		if traced {
			vals = r.PerLayer
		}
		out = append(out, vals[name].Value)
	}
	return out
}

// quartiles is Python's statistics.quantiles(values, n=4) (the exclusive
// method), the definition the spread check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(q2)
}

func quart(values []float64) string {
	q1, q2, q3 := quartiles(values)
	return fmt.Sprintf("%10.4g [%.4g, %.4g]", q2, q1, q3)
}

func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return y > x
	}
	return y < x
}

// winsOf counts the pairs (old[i], new[i]) the new side wins; ties count for
// neither.
func winsOf(old, cur []float64, dir string) (wins, pairs int) {
	pairs = min(len(old), len(cur))
	for i := 0; i < pairs; i++ {
		if better(old[i], cur[i], dir) {
			wins++
		}
	}
	return wins, pairs
}

func verdict(old, cur []float64, m metric) string {
	mo, mc := median(old), median(cur)
	allBetter := true
	for _, x := range old {
		for _, y := range cur {
			allBetter = allBetter && better(x, y, m.Better)
		}
	}
	wins, pairs := winsOf(old, cur, m.Better)
	q1, _, q3 := quartiles(old)
	gain := pairs >= 10 && 10*wins >= 9*pairs && math.Abs(mc-mo) > q3-q1 && better(mo, mc, m.Better)
	switch {
	case gain || (allBetter && pairs >= 10):
		return "better"
	case spread(old) > m.Bound || spread(cur) > m.Bound:
		return "unresolved"
	case better(mc, mo, m.Better) && math.Abs(mc-mo) > m.Bound*math.Abs(mo):
		return "worse"
	}
	return "no change"
}
