package main

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bos/internal/engine"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// Tracing, for -trace runs only. Spans come from three bench-owned places:
// the load goroutines (client.<op>, around each HTTP request), a handler
// wrapper (server.<op>, around the server's mux) and a Backend wrapper
// (engine.<Method>, around each call the handlers make into the engine,
// with the handler callbacks inside QueryEach/QueryFilterEach timed
// separately as CSV). Spans are kept in memory and analysed after the timed
// phase. Nothing inside the program is instrumented.
//
// Linking: every request carries its op id in a header, which ties the
// client span to the server span. A read's engine calls are tied to it by
// series and time range while its handler runs. One InsertGrouped serves
// several ingest requests, so it records the (series, time range) it
// committed, and each ingest request links to the commit that covers its
// first point.

const opHeader = "X-Bosperf-Op"

// opTransport stamps each request with the op id its worker set; one per
// worker, used by that worker's goroutine only.
type opTransport struct {
	base http.RoundTripper
	id   int64
}

func (t *opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(opHeader, strconv.FormatInt(t.id, 10))
	return t.base.RoundTrip(r)
}

type clientSpan struct {
	id         int64
	kind       string
	start, end time.Time
	series     string // ingest: the series posted
	minT       int64  // ingest: its first timestamp
}

type serverSpan struct {
	start, end time.Time
	path       string
}

type engineSpan struct {
	op         int64 // linked read op; 0 for InsertGrouped
	method     string
	start, end time.Time
	csv        time.Duration // time inside handler callbacks
	covers     []cover       // InsertGrouped: what it committed
}

type cover struct {
	series string
	lo, hi int64
}

type pendingOp struct{ id, from, to int64 }

// tracer holds every span of the timed phase.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	cbs    atomic.Int64 // callbacks timed

	mu      sync.Mutex
	clients []clientSpan
	servers map[int64]serverSpan
	engines []engineSpan
	pending map[string][]pendingOp // series -> read ops inside the handler

	nowCost, recordCost time.Duration // calibrated, for trace.overhead_frac
}

func newTracer() *tracer {
	t := &tracer{servers: map[int64]serverSpan{}, pending: map[string][]pendingOp{}}
	t.calibrate()
	return t
}

// calibrate measures what one clock read and one span record cost here.
func (t *tracer) calibrate() {
	const n = 20000
	start := time.Now()
	var sink time.Time
	for i := 0; i < n; i++ {
		sink = time.Now()
	}
	t.nowCost = time.Since(start) / n
	probe := &tracer{servers: map[int64]serverSpan{}}
	start = time.Now()
	for i := 0; i < n; i++ {
		probe.engine(0, "probe", sink, sink, 0, nil)
	}
	t.recordCost = time.Since(start) / n
}

func (t *tracer) clientSpan(id int64, kind string, start, end time.Time, series string, minT int64) {
	t.mu.Lock()
	t.clients = append(t.clients, clientSpan{id, kind, start, end, series, minT})
	t.mu.Unlock()
}

func (t *tracer) engine(op int64, method string, start, end time.Time, csv time.Duration, covers []cover) {
	t.mu.Lock()
	t.engines = append(t.engines, engineSpan{op, method, start, end, csv, covers})
	t.mu.Unlock()
}

// link finds the read op whose handler is serving series over [from, to];
// from == to == 0 takes any op on the series.
func (t *tracer) link(series string, from, to int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.pending[series]
	for _, p := range ops {
		if p.from == from && p.to == to {
			return p.id
		}
	}
	if len(ops) > 0 {
		return ops[0].id
	}
	return 0
}

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		q := r.URL.Query()
		series := q.Get("series")
		if series != "" {
			from, _ := strconv.ParseInt(q.Get("from"), 10, 64)
			to, _ := strconv.ParseInt(q.Get("to"), 10, 64)
			t.mu.Lock()
			t.pending[series] = append(t.pending[series], pendingOp{id, from, to})
			t.mu.Unlock()
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		if series != "" {
			ops := t.pending[series]
			for i, p := range ops {
				if p.id == id {
					t.pending[series] = append(ops[:i:i], ops[i+1:]...)
					break
				}
			}
		}
		t.servers[id] = serverSpan{start, end, r.URL.Path}
		t.mu.Unlock()
	})
}

func (t *tracer) wrapBackend(be server.Backend) server.Backend {
	return &tracedBackend{be: be, t: t}
}

// tracedBackend times every Backend call the handlers make. It forwards
// Compactor, so POST /compact?mode=full works through it when no
// maintainer is attached.
type tracedBackend struct {
	be server.Backend
	t  *tracer
}

func (b *tracedBackend) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	if !b.t.on.Load() {
		return b.be.InsertGrouped(ints, floats)
	}
	start := time.Now()
	err := b.be.InsertGrouped(ints, floats)
	end := time.Now()
	covers := make([]cover, 0, len(ints)+len(floats))
	for s, pts := range ints {
		c := cover{series: s, lo: pts[0].T, hi: pts[0].T}
		for _, p := range pts {
			c.lo, c.hi = min(c.lo, p.T), max(c.hi, p.T)
		}
		covers = append(covers, c)
	}
	for s, pts := range floats {
		c := cover{series: s, lo: pts[0].T, hi: pts[0].T}
		for _, p := range pts {
			c.lo, c.hi = min(c.lo, p.T), max(c.hi, p.T)
		}
		covers = append(covers, c)
	}
	b.t.engine(0, "InsertGrouped", start, end, 0, covers)
	return err
}

// csvSample is how often timedEach times a callback: two clock reads around
// every point would cost more than the CSV line they measure.
const csvSample = 16

// timedEach wraps a streaming call so the handler's callback (CSV encoding
// and writes) is timed apart from the engine work around it. It times every
// csvSample-th callback and scales their total up to all of them.
func (b *tracedBackend) timedEach(method, series string, minT, maxT int64, fn func(tsfile.Point) error,
	call func(func(tsfile.Point) error) error) error {
	if !b.t.on.Load() {
		return call(fn)
	}
	op := b.t.link(series, minT, maxT)
	var csv time.Duration
	var n, timed int64
	start := time.Now()
	err := call(func(p tsfile.Point) error {
		n++
		if n%csvSample != 0 {
			return fn(p)
		}
		c0 := time.Now()
		err := fn(p)
		csv += time.Since(c0)
		timed++
		return err
	})
	end := time.Now()
	if timed > 0 {
		csv = csv * time.Duration(n) / time.Duration(timed)
	}
	b.t.engine(op, method, start, end, min(csv, end.Sub(start)), nil)
	b.t.cbs.Add(timed)
	return err
}

func (b *tracedBackend) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	return b.timedEach("QueryEach", series, minT, maxT, fn, func(f func(tsfile.Point) error) error {
		return b.be.QueryEach(series, minT, maxT, f)
	})
}

func (b *tracedBackend) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	return b.timedEach("QueryFilterEach", series, minT, maxT, fn, func(f func(tsfile.Point) error) error {
		return b.be.QueryFilterEach(series, minT, maxT, minV, maxV, f)
	})
}

// timed records one non-streaming call linked to the read op on series.
func (b *tracedBackend) timed(method, series string, minT, maxT int64, call func()) {
	if !b.t.on.Load() {
		call()
		return
	}
	op := b.t.link(series, minT, maxT)
	start := time.Now()
	call()
	b.t.engine(op, method, start, time.Now(), 0, nil)
}

func (b *tracedBackend) QueryFloats(series string, minT, maxT int64) (pts []tsfile.FloatPoint, err error) {
	b.timed("QueryFloats", series, minT, maxT, func() { pts, err = b.be.QueryFloats(series, minT, maxT) })
	return pts, err
}

func (b *tracedBackend) Downsample(series string, minT, maxT, window int64) (out []engine.Bucket, err error) {
	b.timed("Downsample", series, minT, maxT, func() { out, err = b.be.Downsample(series, minT, maxT, window) })
	return out, err
}

func (b *tracedBackend) Aggregate(series string, minT, maxT int64) (out engine.Bucket, err error) {
	b.timed("Aggregate", series, minT, maxT, func() { out, err = b.be.Aggregate(series, minT, maxT) })
	return out, err
}

func (b *tracedBackend) SeriesKind(series string) (kind string, err error) {
	b.timed("SeriesKind", series, 0, 0, func() { kind, err = b.be.SeriesKind(series) })
	return kind, err
}

func (b *tracedBackend) Series() ([]string, error)                 { return b.be.Series() }
func (b *tracedBackend) SeriesStats() ([]engine.SeriesStat, error) { return b.be.SeriesStats() }
func (b *tracedBackend) Stats() (engine.Stats, error)              { return b.be.Stats() }
func (b *tracedBackend) Flush() error                              { return b.be.Flush() }

func (b *tracedBackend) CompactAll() (engine.CompactStats, error) {
	if c, ok := b.be.(server.Compactor); ok {
		return c.CompactAll()
	}
	return engine.CompactStats{}, errors.New("backend does not support compaction")
}

// layerTimes is one request's time split by layer.
type layerTimes struct {
	client, server, csv, engine, kind, maintain time.Duration
}

// opTrace aggregates the layer split over every request of one op kind.
type opTrace struct {
	Op        string  `json:"op"`
	Requests  int     `json:"requests"`
	Linked    int     `json:"linked"`
	ClientMs  float64 `json:"client_ms"`
	Accounted float64 `json:"accounted_frac"`
	// Mean and median self time per request, by layer.
	Self    map[string]float64 `json:"self_mean_ms"`
	SelfP50 map[string]float64 `json:"self_p50_ms"`

	total time.Duration
	sums  layerTimes
	per   map[string][]time.Duration
}

// traceReport is the analysed trace of one run.
type traceReport struct {
	Ops           []*opTrace `json:"ops"`
	All           *opTrace   `json:"all"`
	CommitterBusy float64    `json:"committer_busy_frac"`
	Overhead      float64    `json:"overhead_frac"`
}

func (o *opTrace) add(lt layerTimes, c time.Duration, linked bool) {
	o.Requests++
	o.total += c
	if !linked {
		return
	}
	o.Linked++
	o.sums.client += lt.client
	o.sums.server += lt.server
	o.sums.csv += lt.csv
	o.sums.engine += lt.engine
	o.sums.kind += lt.kind
	o.sums.maintain += lt.maintain
	for layer, d := range map[string]time.Duration{
		"client": lt.client, "server": lt.server, "server.csv": lt.csv,
		"engine": lt.engine, "engine.kind": lt.kind, "maintain": lt.maintain,
	} {
		o.per[layer] = append(o.per[layer], d)
	}
}

func (o *opTrace) finish() {
	o.ClientMs = ms(o.total) / float64(max(o.Requests, 1))
	s := o.sums
	o.Accounted = float64(s.client+s.server+s.engine+s.maintain) / float64(max(o.total, 1))
	o.Self = map[string]float64{}
	o.SelfP50 = map[string]float64{}
	for layer, ds := range o.per {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		o.Self[layer] = ms(sum) / float64(max(o.Requests, 1))
		o.SelfP50[layer] = o.selfMs(layer, 0.5)
	}
}

// selfMs is the q-quantile of one layer's per-request self time, in ms; 0
// for an op kind the run did not send.
func (o *opTrace) selfMs(layer string, q float64) float64 {
	if o == nil {
		return 0
	}
	return ms(quantile(sortDurations(o.per[layer]), q))
}

// analyze splits every traced request into layer self times: client = its
// span minus the server span, server = the server span minus the engine
// spans plus the CSV callbacks inside them, engine = the engine spans minus
// those callbacks. A request counts as accounted for only when its server
// span was found, its engine spans were found, and each nests inside its
// parent; accounted_frac is the share of client time so decomposed.
func (t *tracer) analyze(elapsed time.Duration) *traceReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int64][]engineSpan{}
	inserts := map[string][]engineSpan{}
	var busy time.Duration
	for _, e := range t.engines {
		if e.method == "InsertGrouped" {
			busy += e.end.Sub(e.start)
			for _, c := range e.covers {
				inserts[c.series] = append(inserts[c.series], engineSpan{start: e.start, end: e.end, covers: []cover{c}})
			}
			continue
		}
		byOp[e.op] = append(byOp[e.op], e)
	}
	rep := &traceReport{All: newOpTrace("all"), CommitterBusy: busy.Seconds() / max(elapsed.Seconds(), 1e-9)}
	ops := map[string]*opTrace{}
	var events int64
	for _, c := range t.clients {
		o := ops[c.kind]
		if o == nil {
			o = newOpTrace(c.kind)
			ops[c.kind] = o
			rep.Ops = append(rep.Ops, o)
		}
		total := c.end.Sub(c.start)
		lt, linked := layerSplit(c, t.servers, byOp, inserts)
		o.add(lt, total, linked)
		rep.All.add(lt, total, linked)
		events++
	}
	events += int64(len(t.servers) + len(t.engines))
	sort.Slice(rep.Ops, func(i, j int) bool { return rep.Ops[i].Op < rep.Ops[j].Op })
	for _, o := range rep.Ops {
		o.finish()
	}
	rep.All.finish()
	cost := time.Duration(events)*(2*t.nowCost+t.recordCost) + time.Duration(t.cbs.Load())*2*t.nowCost
	rep.Overhead = float64(cost) / float64(max(rep.All.total, 1))
	return rep
}

func newOpTrace(op string) *opTrace {
	return &opTrace{Op: op, per: map[string][]time.Duration{}}
}

func layerSplit(c clientSpan, servers map[int64]serverSpan, byOp map[int64][]engineSpan, inserts map[string][]engineSpan) (layerTimes, bool) {
	total := c.end.Sub(c.start)
	s, ok := servers[c.id]
	if !ok {
		return layerTimes{client: total}, false
	}
	sd := s.end.Sub(s.start)
	lt := layerTimes{client: total - sd}
	linked := !s.start.Before(c.start) && !s.end.After(c.end)
	if c.kind == opCompact {
		lt.maintain = sd
		return lt, linked
	}
	var eng time.Duration
	found := false
	if c.kind == opIngest {
		for _, e := range inserts[c.series] {
			if cv := e.covers[0]; cv.lo <= c.minT && c.minT <= cv.hi {
				eng, found = e.end.Sub(e.start), true
				linked = linked && !e.start.Before(s.start) && !e.end.After(s.end)
				break
			}
		}
	} else {
		for _, e := range byOp[c.id] {
			eng += e.end.Sub(e.start)
			lt.csv += e.csv
			if e.method == "SeriesKind" {
				lt.kind += e.end.Sub(e.start)
			}
			found = true
			linked = linked && !e.start.Before(s.start) && !e.end.After(s.end)
		}
	}
	lt.server = sd - eng + lt.csv
	lt.engine = eng - lt.csv
	return lt, linked && found
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
