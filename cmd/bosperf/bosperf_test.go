package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// tinySizes keeps every workload under a couple of seconds.
var tinySizes = sizes{
	preload: 2048, batch: 100, scan: 256, span: 512, window: 64,
	setups: 1, coldCache: 64 << 10, ingestRate: 100000, mixedRate: 40000, compactEvery: 25, warmOps: 6,
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metric                `json:"end_to_end"`
	PerLayer  []metric                `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 0.4, trace: trace,
		dir: t.TempDir(), sz: tinySizes, stderr: testWriter{t},
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	for _, c := range []struct {
		file, code []metric
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.file), len(c.code))
		}
		for i := range c.code {
			if c.file[i] != c.code[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, c.file[i], c.code[i])
			}
		}
	}
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload at tiny size, untraced
// and traced, and checks the last output line carries exactly the metric
// names and units BENCHMARK.json lists.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := execute(tinyConfig(t, wl, trace), "test")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			var out bytes.Buffer
			if err := emit(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last lastLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line %q: %v", wl, lines[len(lines)-1], err)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := last.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", wl, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl, trace, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl, trace, m.Name, v.Value)
				}
			}
			if last.Attempted < 1 {
				t.Errorf("%s: attempted %d", wl, last.Attempted)
			}
			// The real engine is not asserted failure-free: a packer's
			// shared decode scratch can still corrupt a read.
			if last.Failed > 0 {
				t.Logf("%s trace=%v: %d of %d ops failed", wl, trace, last.Failed, last.Attempted)
			}
		}
	}
}

// faultyBackend corrupts a few answers: the second raw scan gets one wrong
// value, the third is cut short (a 200 with a truncated body), the first
// window loses a point of its first bucket and the first filter drops a
// match. Everything else passes through.
type faultyBackend struct {
	server.Backend
	scans, windows, filters atomic.Int64
}

func (f *faultyBackend) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	call := f.scans.Add(1)
	i := 0
	return f.Backend.QueryEach(series, minT, maxT, func(p tsfile.Point) error {
		i++
		switch {
		case call == 2 && i == 10:
			p.V++
		case call == 3 && i > 100:
			return nil
		}
		return fn(p)
	})
}

func (f *faultyBackend) Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error) {
	bs, err := f.Backend.Downsample(series, minT, maxT, window)
	if f.windows.Add(1) == 1 && len(bs) > 0 {
		bs[0].Count--
	}
	return bs, err
}

func (f *faultyBackend) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	drop := f.filters.Add(1) == 1
	return f.Backend.QueryFilterEach(series, minT, maxT, minV, maxV, func(p tsfile.Point) error {
		if drop {
			drop = false
			return nil
		}
		return fn(p)
	})
}

// TestOracleCatchesFaultyBackend checks the oracle fails exactly the
// corrupted answers and passes the rest.
func TestOracleCatchesFaultyBackend(t *testing.T) {
	sz := tinySizes
	m := newModel(3, sz.preload)
	eng, err := engine.Open(engine.Options{Dir: t.TempDir(), EncodeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(eng, m, sz.preload, sz.batch); err != nil {
		t.Fatal(err)
	}
	be := &faultyBackend{Backend: server.NewEngineBackend(eng)}
	mnt := maintain.New(eng, maintain.Config{})
	api, err := server.New(server.Options{Backend: be, Maintainer: mnt})
	if err != nil {
		t.Fatal(err)
	}
	st := &stack{eng: eng, api: api, mnt: mnt, ts: httptest.NewServer(api.Handler())}
	defer st.close()
	rec := newRecorder(testWriter{t})
	rec.startTimed()
	w := newWorker(st, nil, rec, 1)
	s := m[0] // an int series
	// The dropped filter match must leave others, so the range needs two.
	lo := 0
	for s.filter(lo, lo+sz.span).count < 2 {
		lo += sz.window
		if lo+sz.span > sz.preload {
			t.Fatal("no filter range holds two matches")
		}
	}
	for i := 0; i < 5; i++ {
		w.read(opScan, s, 100, 100+sz.scan, 0)
	}
	for i := 0; i < 3; i++ {
		w.read(opWindow, s, lo, lo+sz.span, sz.window)
		w.read(opFilter, s, lo, lo+sz.span, 0)
	}
	want := map[string][2]int{opScan: {5, 2}, opWindow: {3, 1}, opFilter: {3, 1}}
	for kind, x := range want {
		st := rec.ops[kind]
		if st == nil || st.attempted != x[0] || st.failed != x[1] {
			t.Errorf("%s: got %+v, want %d attempted, %d failed", kind, st, x[0], x[1])
		}
	}
}

// TestSpanSelfTimesAccountForClient checks that traced runs decompose at
// least 99% of client-observed time into nested layer spans, for every op
// kind, and that no request has a negative self time in any layer.
func TestSpanSelfTimesAccountForClient(t *testing.T) {
	for _, wl := range []string{"ingest", "agg_cold", "mixed"} {
		res, err := runWorkload(tinyConfig(t, wl, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range append(res.trace.Ops, res.trace.All) {
			if o.Requests == 0 {
				continue
			}
			if o.Accounted < 0.99 {
				t.Errorf("%s %s: %d of %d requests linked, accounted %.4f < 0.99", wl, o.Op, o.Linked, o.Requests, o.Accounted)
			}
			for layer, ds := range o.per {
				if lo := sortDurations(ds)[0]; lo < 0 {
					t.Errorf("%s %s: a request's %s self time is %v", wl, o.Op, layer, lo)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestCompareVerdicts checks the -compare rule on synthetic run sets.
func TestCompareVerdicts(t *testing.T) {
	p50 := metric{"p50_ms", "ms", "lower", 0.10}
	steady := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.002*float64(i%3))
		}
		return out
	}
	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1}
	for _, c := range []struct {
		old, cur []float64
		want     string
	}{
		{steady(1), steady(0.9), "better"},
		{steady(1), steady(1.2), "worse"},
		{steady(1), steady(1.01), "no change"},
		{noisy, steady(1), "unresolved"},
	} {
		if got := verdict(c.old, c.cur, p50); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.old, c.cur, got, c.want)
		}
	}

	// The combined p50 improves while scans get slower and windows faster:
	// each op kind is judged on its own.
	dir := t.TempDir()
	old, cur := filepath.Join(dir, "old.jsonl"), filepath.Join(dir, "new.jsonl")
	for i, v := range steady(1) {
		for path, x := range map[string][3]float64{old: {v, v, v}, cur: {steady(0.9)[i], 1.5 * v, 0.6 * v}} {
			rep := &report{
				Workload: "agg_cold", EndToEnd: map[string]value{"p50_ms": {x[0], "ms"}},
				Ops: []opSummary{{Op: opScan, Samples: 1, P50Ms: x[1]}, {Op: opWindow, Samples: 1, P50Ms: x[2]}},
			}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareFiles([]string{old, cur}, &out); err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			verdicts[f[0]] = strings.Join(f[len(f)-2:], " ")
		}
	}
	for name, want := range map[string]string{"p50_ms": "10/10 better", "scan.p50_ms": "0/10 worse", "window.p50_ms": "10/10 better"} {
		if !strings.HasSuffix(verdicts[name], want) {
			t.Errorf("%s: verdict %q, want %q, in:\n%s", name, verdicts[name], want, out.String())
		}
	}
}
