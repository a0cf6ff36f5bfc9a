package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bos/internal/engine"
	"bos/internal/packers"
	"bos/internal/pushdown"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// sizes scales a run. The tests shrink it; every other caller uses
// fullSizes.
type sizes struct {
	preload      int           // points per series before a read workload starts
	batch        int           // points per ingest request
	scan         int           // points per raw scan
	span         int           // points per window or filter range
	window       int           // points per aggregate window
	setups       int           // least set-ups per run; setup_s is their median
	setupBudget  time.Duration // more set-ups run while they total less
	coldCache    int64         // agg_cold chunk-cache budget, bytes
	ingestRate   float64       // ingest posts seconds x ingestRate points
	mixedRate    float64       // mixed writer schedule, points per second
	compactEvery int           // mixed: every Nth reader request compacts instead
	warmOps      int           // agg_cold reads per set-up before timing
}

// fullSizes: 80 series x 16384 points preloaded (1.3M points, a 21 MB
// decoded working set: inside the default 64 MiB chunk cache, 5x the
// agg_cold cache). mixedRate is about an eighth of the ingest throughput
// measured on the 2-vCPU machine the baseline in results/ was recorded on;
// the package doc says why not more.
var fullSizes = sizes{
	preload: 16384, batch: 500, scan: 4096, span: 8192, window: 512,
	setups: 3, setupBudget: time.Second, coldCache: 4 << 20, ingestRate: 400000, mixedRate: 50000,
	compactEvery: 400, warmOps: 150,
}

// maxSetups caps the set-ups setupBudget adds.
const maxSetups = 15

// workloads names every workload in the order reports list them.
var workloads = []string{"ingest", "scan_hot", "agg_cold", "mixed"}

// config is one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	sz       sizes
	stderr   io.Writer
}

// Op kinds. Timed kinds feed the end-to-end metrics; readback and warm are
// correctness checks outside the timed phase.
const (
	opIngest   = "ingest"
	opScan     = "scan"
	opWindow   = "window"
	opFilter   = "filter"
	opCompact  = "compact"
	opReadback = "readback"
	opWarm     = "warm"
)

// opStats accumulates one op kind.
type opStats struct {
	lat       []time.Duration // of successful timed requests
	at        []time.Duration // when each of them completed, from the timed phase's start
	attempted int
	failed    int
	points    int64 // points acknowledged or answered by successful requests
}

// recorder collects op outcomes from every load goroutine.
type recorder struct {
	timed  atomic.Bool // outside the timed phase, requests count as warm
	mu     sync.Mutex
	ops    map[string]*opStats
	start  time.Time // of the timed phase
	stderr io.Writer
}

func newRecorder(stderr io.Writer) *recorder {
	return &recorder{ops: map[string]*opStats{}, stderr: stderr}
}

// startTimed begins the timed phase and returns its start. Call it before
// the load goroutines start.
func (r *recorder) startTimed() time.Time {
	r.start = time.Now()
	r.timed.Store(true)
	return r.start
}

// record files one request. A wrong answer or an error counts as failed and
// the first five per kind are printed; the run never stops or retries.
func (r *recorder) record(kind string, lat time.Duration, points int, err error) {
	if timedKinds[kind] && !r.timed.Load() {
		kind = opWarm
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.ops[kind]
	if st == nil {
		st = &opStats{}
		r.ops[kind] = st
	}
	st.attempted++
	if err != nil {
		st.failed++
		if st.failed <= 5 {
			fmt.Fprintf(r.stderr, "bosperf: %s failed: %v\n", kind, err)
		}
		return
	}
	st.points += int64(points)
	if timedKinds[kind] {
		st.lat = append(st.lat, lat)
		st.at = append(st.at, time.Since(r.start))
	}
}

// progress is the acknowledged point count of every series: point k of
// series i is stored iff k < acked[i].
type progress struct{ acked []atomic.Int64 }

// worker is one load goroutine with its own connection.
type worker struct {
	c     *server.Client
	tp    *opTransport // traced runs stamp each request with its op id
	tr    *tracer
	rng   *rand.Rand
	rec   *recorder
	bench time.Duration // bench-owned time between requests
	busy  time.Duration // wall time of the worker's timed loop
	// Open-loop writers only: how late each request was sent, and when the
	// previous one completed.
	late    []time.Duration
	lastEnd time.Time
}

func newWorker(st *stack, tr *tracer, rec *recorder, seed int64) *worker {
	w := &worker{tr: tr, rec: rec, rng: rand.New(rand.NewSource(seed))}
	if tr != nil {
		w.tp = &opTransport{base: newHTTPClient(nil).Transport}
		w.c = server.NewClient(st.ts.URL, newHTTPClient(w.tp))
	} else {
		w.c = server.NewClient(st.ts.URL, newHTTPClient(nil))
	}
	return w
}

// begin allocates the op id a traced request carries.
func (w *worker) begin() int64 {
	if w.tr == nil {
		return 0
	}
	id := w.tr.nextID.Add(1)
	w.tp.id = id
	return id
}

// read issues one read of s over points [lo, hi) and checks the answer.
func (w *worker) read(kind string, s *series, lo, hi, window int) {
	g0 := time.Now()
	var want answer
	var wantB []pushdown.Bucket
	switch kind {
	case opWindow:
		wantB = s.windows(lo, hi, window)
	case opFilter:
		want = s.filter(lo, hi)
	default:
		want = s.scan(lo, hi)
	}
	id := w.begin()
	t0 := time.Now()
	got, gotB, err := w.fetch(kind, s, lo, hi, window)
	t1 := time.Now()
	if err == nil {
		err = compare(kind, s, lo, hi, got, want, gotB, wantB)
	}
	w.rec.record(kind, t1.Sub(t0), hi-lo, err)
	if w.tr != nil {
		w.tr.clientSpan(id, kind, t0, t1, "", 0)
	}
	w.bench += t0.Sub(g0) + time.Since(t1)
}

func (w *worker) fetch(kind string, s *series, lo, hi, window int) (answer, []pushdown.Bucket, error) {
	from, to := tOf(lo), tOf(hi-1)
	got := newAnswer()
	add := func(p tsfile.Point) error {
		got.add(p.T, uint64(p.V))
		return nil
	}
	switch kind {
	case opWindow:
		var bs []pushdown.Bucket
		err := w.c.Window(s.name, from, to, int64(window)*step, func(b server.Bucket) error {
			bs = append(bs, b)
			return nil
		})
		return got, bs, err
	case opFilter:
		return got, nil, w.c.QueryFilterEach(s.name, from, to, s.vmin, math.MaxInt64, add)
	}
	if s.float {
		pts, err := w.c.QueryFloats(s.name, from, to)
		for _, p := range pts {
			got.add(p.T, math.Float64bits(p.V))
		}
		return got, nil, err
	}
	return got, nil, w.c.QueryEach(s.name, from, to, add)
}

// compare is the oracle: raw scans and filters must match the model's count
// and checksum exactly, windows every bucket's start, count, min, max and
// sum. A 200 with a short or empty body fails here.
func compare(kind string, s *series, lo, hi int, got, want answer, gotB, wantB []pushdown.Bucket) error {
	if kind != opWindow {
		if got != want {
			return fmt.Errorf("%s %s [%d,%d): got %d points (sum %016x), want %d (sum %016x)",
				kind, s.name, lo, hi, got.count, got.sum, want.count, want.sum)
		}
		return nil
	}
	if len(gotB) != len(wantB) {
		return fmt.Errorf("window %s [%d,%d): got %d buckets, want %d", s.name, lo, hi, len(gotB), len(wantB))
	}
	for i := range wantB {
		g, x := gotB[i], wantB[i]
		if g.Start != x.Start || g.Count != x.Count || g.Min != x.Min || g.Max != x.Max || g.Sum != x.Sum {
			return fmt.Errorf("window %s [%d,%d) bucket %d: got %+v, want %+v", s.name, lo, hi, i, g, x)
		}
	}
	return nil
}

// ingest posts points [lo, hi) of s and checks the acknowledgement. due is
// when an open-loop schedule wanted the request sent; zero due means closed
// loop.
func (w *worker) ingest(s *series, si int, lo, hi int, due time.Time, pr *progress) {
	g0 := time.Now()
	body := s.appendLines(nil, lo, hi)
	id := w.begin()
	t0 := time.Now()
	resp, err := w.c.IngestLines(body)
	t1 := time.Now()
	if err == nil && (resp.Points != hi-lo || resp.Series != 1) {
		err = fmt.Errorf("ingest %s [%d,%d): acknowledged %d points in %d series", s.name, lo, hi, resp.Points, resp.Series)
	}
	start := t0
	if !due.IsZero() {
		w.late = append(w.late, t0.Sub(due))
		// A request the previous one held past its due time waited for the
		// system, so its latency counts from when it was due. An idle
		// writer that wakes late only shows the generator's own delay,
		// which the lateness figures report instead.
		if w.lastEnd.After(due) {
			start = due
		}
	}
	w.lastEnd = t1
	w.rec.record(opIngest, t1.Sub(start), hi-lo, err)
	if err == nil {
		pr.acked[si].Store(int64(hi))
	}
	if w.tr != nil {
		w.tr.clientSpan(id, opIngest, t0, t1, s.name, tOf(lo))
	}
	w.bench += t0.Sub(g0) + time.Since(t1)
}

func (w *worker) compact() {
	id := w.begin()
	t0 := time.Now()
	_, err := w.c.Compact("policy")
	t1 := time.Now()
	w.rec.record(opCompact, t1.Sub(t0), 0, err)
	if w.tr != nil {
		w.tr.clientSpan(id, opCompact, t0, t1, "", 0)
	}
}

// runWorkers runs every worker's body on its own goroutine and waits for
// all of them; each body returns when the deadline passes.
func runWorkers(ws []*worker, body func(i int, w *worker)) {
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			start := time.Now()
			body(i, w)
			w.busy = time.Since(start)
		}(i, w)
	}
	wg.Wait()
}

// preload inserts points [0, n) of every series straight into the engine in
// batch-point requests, round-robin over the series, so the flush layout is
// the one the ingest workload leaves.
func preload(eng *engine.Engine, m []*series, n, batch int) error {
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		for _, s := range m {
			var err error
			if s.float {
				pts := make([]tsfile.FloatPoint, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pts = append(pts, tsfile.FloatPoint{T: tOf(k), V: s.flt(k)})
				}
				err = eng.InsertFloatBatch(s.name, pts)
			} else {
				pts := make([]tsfile.Point, 0, hi-lo)
				for k := lo; k < hi; k++ {
					pts = append(pts, tsfile.Point{T: tOf(k), V: s.int(k)})
				}
				err = eng.InsertBatch(s.name, pts)
			}
			if err != nil {
				return fmt.Errorf("preload %s: %w", s.name, err)
			}
		}
	}
	return nil
}

// result is everything a run measured.
type result struct {
	setups   []time.Duration
	rec      *recorder
	elapsed  time.Duration // timed phase
	cpu      time.Duration // CPU time the process used in the timed phase
	bench    float64       // bench-owned share of the load goroutines' time
	late     []time.Duration
	bpp      float64 // on-disk bytes per point
	before   server.StatsResponse
	after    server.StatsResponse
	flushes  int
	trace    *traceReport
	probes   map[string]float64
	rssBytes int64
}

// runWorkload sets up, runs and checks one workload.
func runWorkload(cfg config) (*result, error) {
	sz := cfg.sz
	m := newModel(cfg.seed, sz.preload)
	res := &result{rec: newRecorder(cfg.stderr)}
	pr := &progress{acked: make([]atomic.Int64, len(m))}
	// ingest runs the engine as bosserver runs it by default: one BOS-B
	// packer shared by every data file, 16384-point flush threshold, WAL
	// without fsync, a 64 MiB cache and GOMAXPROCS encode workers. So does
	// agg_cold, with its smaller cache. A packer's decode scratch is not
	// safe for concurrent use, so two goroutines decoding through one packer
	// corrupt each other's blocks: in a request handler that is a failed or
	// wrong answer, in the engine's own goroutines (a merged scan's parallel
	// first-chunk decode, a compaction's encode workers) a panic. ingest
	// decodes nothing while it runs, and agg_cold's one reader decodes its
	// one file on one goroutine. scan_hot and mixed read many files at once,
	// so they give each file its own BOS-B packer (the engine default), and
	// mixed compacts on one encode worker.
	packer, err := packers.ByName("bosb")
	if err != nil {
		return nil, err
	}
	var opt engine.Options
	switch cfg.workload {
	case "ingest":
		opt.File.Packer = packer
	case "agg_cold":
		opt.File.Packer = packer
		opt.CacheBytes = sz.coldCache
	case "scan_hot":
	case "mixed":
		opt.EncodeWorkers = 1
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// A cheap set-up (ingest's) repeats until the set-ups add up to
	// setupBudget, so its median rests on enough samples to be steady.
	var st *stack
	var setupTotal time.Duration
	for i := 0; i < sz.setups || (setupTotal < sz.setupBudget && i < maxSetups); i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(st.dir); err != nil {
				return nil, err
			}
		}
		for j := range pr.acked {
			pr.acked[j].Store(0)
		}
		t := time.Now()
		var err error
		st, err = setup(cfg, m, filepath.Join(cfg.dir, "setup"+strconv.Itoa(i)), opt, tr, res.rec, pr)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t))
		setupTotal += res.setups[i]
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	if res.before, err = stats(st); err != nil {
		return nil, err
	}
	seq0 := maxSeq(st.eng)
	// One closed-loop load goroutine (a writer on ingest, a reader on
	// scan_hot and agg_cold), or an open-loop writer and a reader (mixed). On
	// two cores a second closed-loop client doubled throughput but also the
	// spread between runs; on agg_cold it would decode the one file through
	// the shared packer on two goroutines at once.
	load := 1
	if cfg.workload == "mixed" {
		load = 2
	}
	ws := make([]*worker, load)
	for i := range ws {
		ws[i] = newWorker(st, tr, res.rec, cfg.seed*1000+int64(i))
	}
	if tr != nil {
		tr.on.Store(true)
	}
	cpu0 := cpuTime()
	start := res.rec.startTimed()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	switch cfg.workload {
	case "ingest":
		total := ingestPoints(sz, cfg.seconds)
		runWorkers(ws, func(i int, w *worker) { ingestLoop(w, m, i, len(ws), sz.batch, total, pr) })
	case "scan_hot":
		runWorkers(ws, func(_ int, w *worker) {
			for time.Now().Before(deadline) {
				s := m[w.rng.Intn(len(m))]
				lo := w.rng.Intn(sz.preload - sz.scan + 1)
				w.read(opScan, s, lo, lo+sz.scan, 0)
			}
		})
	case "agg_cold":
		runWorkers(ws, func(_ int, w *worker) {
			for n := 0; time.Now().Before(deadline); n++ {
				coldRead(w, m, sz, n)
			}
		})
	case "mixed":
		runWorkers(ws, func(i int, w *worker) {
			if i == 0 {
				mixedWriter(w, m, sz, start, deadline, pr)
				return
			}
			for n := 1; time.Now().Before(deadline); n++ {
				if n%sz.compactEvery == 0 {
					w.compact()
					continue
				}
				si := w.rng.Intn(len(m))
				hi := int(pr.acked[si].Load())
				w.read(opScan, m[si], hi-sz.scan, hi, 0)
			}
		})
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.rec.timed.Store(false)
	if tr != nil {
		tr.on.Store(false)
	}
	var bench, busy time.Duration
	for _, w := range ws {
		bench += w.bench
		busy += w.busy
		res.late = append(res.late, w.late...)
	}
	res.bench = float64(bench) / float64(max(busy, 1))
	res.flushes = maxSeq(st.eng) - seq0
	if res.after, err = stats(st); err != nil {
		return nil, err
	}
	if tr != nil {
		res.trace = tr.analyze(res.elapsed)
		res.probes, err = runProbes(st, m, pr)
		if err != nil {
			return nil, err
		}
	}

	// Untimed: close the stack, which flushes what the writers left
	// buffered; reopen the directory, compact every file into one and check
	// every series holds exactly its acknowledged points.
	dir := st.dir
	err = st.close()
	st = nil
	if err != nil {
		return nil, err
	}
	res.bpp = res.after.BytesPerPoint
	if cfg.workload == "ingest" || cfg.workload == "mixed" {
		err = withFileEngine(dir, opt, func(eng *engine.Engine) error {
			if err := eng.Compact(); err != nil {
				return fmt.Errorf("final compaction: %w", err)
			}
			for si, s := range m {
				readback(eng, res.rec, s, int(pr.acked[si].Load()))
			}
			fin := eng.Stats()
			res.bpp = float64(fin.DiskBytes) / float64(max(fin.DiskPoints, 1))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.rssBytes = peakRSS()
	return res, nil
}

// withFileEngine opens the engine over dir with one encode worker, runs fn
// and closes it. The final compaction runs through it, not through the
// stack: a compaction decodes its input files on every encode worker at
// once, and two goroutines decoding through one packer, whose decode scratch
// is not safe for concurrent use, fail ("corrupt block") or write wrong
// values. One worker writes the same bytes a working parallel compaction
// writes.
func withFileEngine(dir string, opt engine.Options, fn func(*engine.Engine) error) error {
	opt.Dir = dir
	opt.EncodeWorkers = 1
	eng, err := engine.Open(opt)
	if err != nil {
		return err
	}
	return errors.Join(fn(eng), eng.Close())
}

// writeCompacted writes points [0, n) of every series into dir as one file
// holding one chunk per series, the layout a full compaction leaves: the
// engine buffers the whole preload (no WAL, no threshold flush) and its
// close flushes it once, encoding on every core. A flush only encodes, so
// parallel workers are safe here.
func writeCompacted(dir string, opt engine.Options, m []*series, n, batch int) error {
	opt.Dir = dir
	opt.FlushThreshold = len(m)*n + 1
	opt.DisableWAL = true
	opt.EncodeWorkers = 0
	eng, err := engine.Open(opt)
	if err != nil {
		return err
	}
	return errors.Join(preload(eng, m, n, batch), eng.Close())
}

// setup builds one stack for the workload in a fresh directory.
func setup(cfg config, m []*series, dir string, opt engine.Options, tr *tracer, rec *recorder, pr *progress) (*stack, error) {
	sz := cfg.sz
	if cfg.workload == "agg_cold" || cfg.workload == "mixed" {
		if err := writeCompacted(dir, opt, m, sz.preload, sz.batch); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	st, err := openStack(dir, opt, tr)
	if err != nil {
		return nil, err
	}
	c := server.NewClient(st.ts.URL, newHTTPClient(nil))
	switch cfg.workload {
	case "ingest":
		// One warm-up round: every series' first batch goes through the
		// full ingest path, so connections and the first WAL segment exist.
		w := &worker{c: c, rec: rec}
		for si, s := range m {
			w.ingest(s, si, 0, sz.batch, time.Time{}, pr)
		}
		return st, nil
	case "scan_hot":
		if err := preload(st.eng, m, sz.preload, sz.batch); err != nil {
			st.close()
			return nil, err
		}
		// One full pass decodes every chunk into the cache.
		for _, s := range m {
			readback(st.eng, rec, s, sz.preload)
		}
	case "agg_cold":
		w := &worker{c: c, rec: rec, rng: rand.New(rand.NewSource(cfg.seed))}
		for n := 0; n < sz.warmOps; n++ {
			coldRead(w, m, sz, n)
		}
	}
	for si := range m {
		pr.acked[si].Store(int64(sz.preload))
	}
	return st, nil
}

// readback checks through the engine that series s holds exactly points
// [0, n).
func readback(eng *engine.Engine, rec *recorder, s *series, n int) {
	got := newAnswer()
	from, to := tOf(0), tOf(n-1)
	var err error
	if s.float {
		var pts []tsfile.FloatPoint
		pts, err = eng.QueryFloats(s.name, from, to)
		for _, p := range pts {
			got.add(p.T, math.Float64bits(p.V))
		}
	} else {
		err = eng.QueryEach(s.name, from, to, func(p tsfile.Point) error {
			got.add(p.T, uint64(p.V))
			return nil
		})
	}
	if err == nil {
		err = compare(opReadback, s, 0, n, got, s.scan(0, n), nil, nil)
	}
	rec.record(opReadback, 0, n, err)
}

// coldRead is agg_cold's mix, equal thirds in rotation: a raw scan of any
// series, a windowed aggregate and a value filter of an int series.
func coldRead(w *worker, m []*series, sz sizes, n int) {
	ints := m[:numSeries-floatSeries]
	switch n % 3 {
	case 0:
		s := m[w.rng.Intn(len(m))]
		lo := w.rng.Intn(sz.preload - sz.scan + 1)
		w.read(opScan, s, lo, lo+sz.scan, 0)
	case 1:
		s := ints[w.rng.Intn(len(ints))]
		lo := w.rng.Intn(sz.preload - sz.span + 1)
		w.read(opWindow, s, lo, lo+sz.span, sz.window)
	default:
		s := ints[w.rng.Intn(len(ints))]
		lo := w.rng.Intn(sz.preload - sz.span + 1)
		w.read(opFilter, s, lo, lo+sz.span, 0)
	}
}

// ingestPoints is the fixed number of points the ingest workload leaves in
// every series: seconds x ingestRate over all of them, in whole batches, at
// least two per series (set-up posts the first).
func ingestPoints(sz sizes, seconds float64) int {
	batches := int(math.Round(seconds * sz.ingestRate / numSeries / float64(sz.batch)))
	return max(batches, 2) * sz.batch
}

// ingestLoop is one closed-loop writer: batches of the series it owns
// (every nw-th), round-robin, each request the series' next points, until
// each holds total points. A failed request is not retried; its series
// moves on to the next batch.
func ingestLoop(w *worker, m []*series, i, nw, batch, total int, pr *progress) {
	next := make([]int, len(m))
	for si := i; si < len(m); si += nw {
		next[si] = int(pr.acked[si].Load())
	}
	for more := true; more; {
		more = false
		for si := i; si < len(m); si += nw {
			if lo := next[si]; lo < total {
				w.ingest(m[si], si, lo, lo+batch, time.Time{}, pr)
				next[si] = lo + batch
				more = true
			}
		}
	}
}

// mixedWriter is mixed's open-loop writer: one batch every batch/rate
// seconds, round-robin over every series' tail. A late request is sent at
// once; see ingest for when its latency counts from when it was due.
func mixedWriter(w *worker, m []*series, sz sizes, start, deadline time.Time, pr *progress) {
	interval := time.Duration(float64(sz.batch) / sz.mixedRate * float64(time.Second))
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * interval)
		if !due.Before(deadline) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		si := n % len(m)
		lo := int(pr.acked[si].Load())
		w.ingest(m[si], si, lo, lo+sz.batch, due, pr)
	}
}

// stats reads /stats without the per-series walk.
func stats(st *stack) (server.StatsResponse, error) {
	var out server.StatsResponse
	resp, err := newHTTPClient(nil).Get(st.ts.URL + "/stats?series=0")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return out, fmt.Errorf("stats: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// maxSeq is the newest data file's sequence; flushes take consecutive
// sequences and compaction reuses its newest input's, so the difference
// across a phase counts the flushes in it.
func maxSeq(eng *engine.Engine) int {
	seq := 0
	for _, fi := range eng.FileInfos() {
		seq = max(seq, fi.Seq)
	}
	return seq
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var errNoOps = errors.New("no timed requests completed")
