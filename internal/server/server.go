package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bos/internal/chunkcache"
	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/pushdown"
	"bos/internal/tsfile"
)

// Options configures a Server.
type Options struct {
	// Backend is the storage to serve: NewEngineBackend for a single
	// engine, internal/cluster's Router for a sharded one. The caller keeps
	// ownership: Server.Close flushes it but does not close it. Required.
	Backend Backend
	// Maintainer, when set, backs the POST /compact admin endpoint and adds
	// maintenance counters to /stats. The caller keeps ownership (start and
	// stop it around the HTTP lifecycle). Single-engine only: a sharded
	// backend implements Compactor instead.
	Maintainer *maintain.Maintainer
	// PackerName is reported by /stats (informational).
	PackerName string
	// MaxBodyBytes bounds one ingest request body (default 8 MiB).
	MaxBodyBytes int64
}

func (o Options) maxBody() int64 {
	if o.MaxBodyBytes <= 0 {
		return 8 << 20
	}
	return o.MaxBodyBytes
}

// Server is the HTTP serving layer: it owns the ingest group committer and
// translates the HTTP API onto engine calls. Use Handler for the mux and
// Close for graceful teardown (after http.Server.Shutdown has drained
// connections).
type Server struct {
	opt     Options
	be      Backend
	coal    *coalescer
	mux     *http.ServeMux
	start   time.Time
	queries atomic.Int64
}

// New builds a Server over a storage backend.
func New(opt Options) (*Server, error) {
	be := opt.Backend
	if be == nil {
		return nil, errors.New("server: Options.Backend is required")
	}
	s := &Server{
		opt:   opt,
		be:    be,
		coal:  newCoalescer(be),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /agg", s.handleAgg)
	s.mux.HandleFunc("GET /downsample", s.handleDownsample)
	s.mux.HandleFunc("GET /series", s.handleSeries)
	s.mux.HandleFunc("GET /kind", s.handleKind)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s, nil
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the ingest committer (every acknowledged write is in the
// backend, and through its WAL, before Close returns) and flushes buffered
// writes to disk. Call after the HTTP listener has stopped accepting work.
func (s *Server) Close() error {
	s.coal.stop()
	return s.be.Flush()
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// IngestResponse acknowledges one ingest request.
type IngestResponse struct {
	Points int `json:"points"`
	Series int `json:"series"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opt.maxBody()+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if int64(len(body)) > s.opt.maxBody() {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", s.opt.maxBody()))
		return
	}
	b, err := parseBatch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if b.points == 0 {
		writeJSON(w, IngestResponse{})
		return
	}
	if err := s.coal.submit(b); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrShuttingDown) {
			status = http.StatusServiceUnavailable
		} else if errors.Is(err, engine.ErrSeriesKind) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, IngestResponse{Points: b.points, Series: len(b.ints) + len(b.floats)})
}

// timeRange parses from/to query params (defaulting to the full range).
func timeRange(r *http.Request) (int64, int64, error) {
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	if v := r.FormValue("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("from: %w", err)
		}
		from = n
	}
	if v := r.FormValue("to"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("to: %w", err)
		}
		to = n
	}
	return from, to, nil
}

// handleQuery streams a range scan as CSV lines "timestamp,value", or as the
// point stream (pointstream.go) when the request's Accept header is exactly
// its media type. Integer series stream through the engine's paged scan
// (memory bounded by the page size, not the series size); float series are
// read in one engine call and streamed out incrementally.
//
// Two pushdown variants share the endpoint for integer series: window=N
// streams windowed aggregate rows "start,count,min,max,sum,avg" (requires
// from, like /downsample), and vmin/vmax stream only the points whose value
// falls inside [vmin, vmax] — both answered in the compressed domain where
// chunk statistics allow.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	series := r.FormValue("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, errors.New("series is required"))
		return
	}
	from, to, err := timeRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.queries.Add(1)
	kind, err := s.be.SeriesKind(series)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if kind == "" {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown series %q", series))
		return
	}
	if r.FormValue("window") != "" {
		s.queryWindowed(w, r, series, kind, from, to)
		return
	}
	if r.FormValue("vmin") != "" || r.FormValue("vmax") != "" {
		s.queryFiltered(w, r, series, kind, from, to)
		return
	}
	streamKind := byte(kindInt)
	if kind == "float" {
		streamKind = kindFloat
	}
	cw := newRowWriter(w, r, kind, streamKind)
	defer cw.release()
	if kind == "float" {
		pts, err := s.be.QueryFloats(series, from, to)
		if err != nil {
			cw.fail(err)
			return
		}
		for _, p := range pts {
			if err := cw.writeFloat(p.T, p.V); err != nil {
				// Client went away mid-stream; stop formatting rows for it.
				return
			}
		}
	} else {
		err := s.be.QueryEach(series, from, to, func(p tsfile.Point) error {
			return cw.writeInt(p.T, p.V)
		})
		if err != nil {
			cw.fail(err)
			return
		}
	}
	//bos:nolint(checkederr): a failed final write means the client is gone, and no one is left to tell
	cw.end()
}

// queryWindowed serves /query?window=N: windowed aggregate rows
// "start,count,min,max,sum,avg", one CSV line or 'w' record per non-empty
// window.
func (s *Server) queryWindowed(w http.ResponseWriter, r *http.Request, series, kind string, from, to int64) {
	if !intOnly(w, series, kind, "window") {
		return
	}
	window, err := strconv.ParseInt(r.FormValue("window"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("window: %w", err))
		return
	}
	if from == math.MinInt64 {
		// Window starts are computed relative to from, same as /downsample.
		httpError(w, http.StatusBadRequest, errors.New("window requires from"))
		return
	}
	buckets, err := s.be.Downsample(series, from, to, window)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrBadWindow) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	cw := newRowWriter(w, r, kind, kindWindow)
	defer cw.release()
	for _, b := range buckets {
		if err := cw.writeBucket(b); err != nil {
			return
		}
	}
	//bos:nolint(checkederr): a failed final write means the client is gone, and no one is left to tell
	cw.end()
}

// queryFiltered serves /query?vmin=&vmax=: the points whose value falls in
// [vmin, vmax] (either bound may be omitted), streamed as "timestamp,value".
func (s *Server) queryFiltered(w http.ResponseWriter, r *http.Request, series, kind string, from, to int64) {
	if !intOnly(w, series, kind, "vmin/vmax") {
		return
	}
	vmin, vmax := int64(math.MinInt64), int64(math.MaxInt64)
	if v := r.FormValue("vmin"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("vmin: %w", err))
			return
		}
		vmin = n
	}
	if v := r.FormValue("vmax"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("vmax: %w", err))
			return
		}
		vmax = n
	}
	cw := newRowWriter(w, r, kind, kindInt)
	defer cw.release()
	err := s.be.QueryFilterEach(series, from, to, vmin, vmax, func(p tsfile.Point) error {
		return cw.writeInt(p.T, p.V)
	})
	if err != nil {
		cw.fail(err)
		return
	}
	//bos:nolint(checkederr): a failed final write means the client is gone, and no one is left to tell
	cw.end()
}

// intOnly ends a read that folds or filters integer values (/agg,
// /downsample, /query?window= and /query?vmin=) with a 400 when kind, the
// series' Backend.SeriesKind, is float. It reports whether the read goes on.
// An unknown series ("") goes on, so each endpoint keeps its own answer for
// one.
func intOnly(w http.ResponseWriter, series, kind, read string) bool {
	if kind != "float" {
		return true
	}
	httpError(w, http.StatusBadRequest, fmt.Errorf("%s requires an integer series; %q is float", read, series))
	return false
}

// flushBytes is how many row bytes rowWriter gathers before it sends them.
const flushBytes = 24 << 10

// frameRoom is the room rowWriter keeps before its rows for what leads a
// point stream frame: the kind byte and the record count.
const frameRoom = 1 + binary.MaxVarintLen64

// rowBufs holds rowWriter buffers, so a scan does not allocate one per
// request.
var rowBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

// rowWriter batches the rows of a /query answer and flushes them through the
// ResponseWriter in chunks, so long scans stream instead of accumulating.
// The rows are CSV, or the point stream (pointstream.go) when the request's
// Accept header asks for it; only how a row is appended differs. Each chunk
// of the point stream is one frame.
type rowWriter struct {
	w      http.ResponseWriter
	bp     *[]byte
	buf    []byte // frameRoom bytes, then the pending rows
	stream bool
	kind   byte   // the point stream's kind byte
	n      uint64 // pending rows
	d      deltas
	err    error
	wrote  bool // some rows went out, and with them the 200 status line
}

// newRowWriter sets the answer's headers and returns its writer. kind is
// the point stream's kind byte and seriesKind the X-Series-Kind header.
// Call release when the answer is done.
func newRowWriter(w http.ResponseWriter, r *http.Request, seriesKind string, kind byte) *rowWriter {
	c := &rowWriter{w: w, bp: rowBufs.Get().(*[]byte), kind: kind}
	c.buf = append((*c.bp)[:0], make([]byte, frameRoom)...)
	c.stream = r.Header.Get("Accept") == pointsMediaType
	if c.stream {
		w.Header().Set("Content-Type", pointsMediaType)
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Header().Set("X-Series-Kind", seriesKind)
	return c
}

// release returns the writer's buffer to the pool.
func (c *rowWriter) release() {
	*c.bp = c.buf[:0]
	rowBufs.Put(c.bp)
}

// fail reports a failed scan. While no row has gone out the client gets a
// 500 with the error. After that the status is sent, so the handler aborts
// the response: the connection closes before the body's end, and the client
// reads an error instead of a short answer. A write error means the client
// is gone, and there is no one left to tell.
func (c *rowWriter) fail(err error) {
	if c.err != nil {
		return
	}
	if !c.wrote {
		c.w.Header().Del("X-Series-Kind")
		httpError(c.w, http.StatusInternalServerError, err)
		return
	}
	panic(http.ErrAbortHandler)
}

func (c *rowWriter) writeInt(t, v int64) error {
	if c.stream {
		c.buf = c.d.appendInt(c.buf, t, v)
	} else {
		c.buf = strconv.AppendInt(c.buf, t, 10)
		c.buf = append(c.buf, ',')
		c.buf = strconv.AppendInt(c.buf, v, 10)
		c.buf = append(c.buf, '\n')
	}
	return c.added()
}

func (c *rowWriter) writeFloat(t int64, v float64) error {
	if c.stream {
		c.buf = c.d.appendFloat(c.buf, t, v)
	} else {
		c.buf = strconv.AppendInt(c.buf, t, 10)
		c.buf = append(c.buf, ',')
		c.buf = appendFloatValue(c.buf, v)
		c.buf = append(c.buf, '\n')
	}
	return c.added()
}

func (c *rowWriter) writeBucket(b engine.Bucket) error {
	if c.stream {
		c.buf = c.d.appendBucket(c.buf, b)
		return c.added()
	}
	c.buf = strconv.AppendInt(c.buf, b.Start, 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendInt(c.buf, int64(b.Count), 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendInt(c.buf, b.Min, 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendInt(c.buf, b.Max, 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendInt(c.buf, b.Sum, 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendFloat(c.buf, b.Avg(), 'g', -1, 64)
	c.buf = append(c.buf, '\n')
	return c.added()
}

// added counts a row just appended and flushes once enough are pending.
func (c *rowWriter) added() error {
	c.n++
	if len(c.buf)-frameRoom >= flushBytes {
		return c.flush()
	}
	return c.err
}

// flush sends the pending rows.
func (c *rowWriter) flush() error { return c.send(false) }

// end sends the pending rows and, in the point stream, the end frame. The
// handler's return flushes them.
func (c *rowWriter) end() error { return c.send(true) }

// send writes the pending rows as one chunk. In the point stream they go out
// as one frame, led by the kind byte in the first chunk and, when last,
// followed by the end frame.
func (c *rowWriter) send(last bool) error {
	if c.err != nil {
		return c.err
	}
	start := frameRoom
	if c.stream {
		if last {
			c.buf = append(c.buf, 0)
		}
		if c.n > 0 {
			var hdr [binary.MaxVarintLen64]byte
			h := binary.PutUvarint(hdr[:], c.n)
			start -= copy(c.buf[start-h:], hdr[:h])
		}
	}
	if start == len(c.buf) {
		return nil
	}
	if c.stream && !c.wrote {
		start--
		c.buf[start] = c.kind
	}
	c.wrote = true
	if _, err := c.w.Write(c.buf[start:]); err != nil {
		c.err = err
		return err
	}
	c.buf, c.n = c.buf[:frameRoom], 0
	if f, ok := c.w.(http.Flusher); ok && !last {
		f.Flush()
	}
	return nil
}

// appendFloatValue formats a float so it re-parses on the float path of the
// line protocol: shortest round-trip form, forced to contain '.' or 'e'.
func appendFloatValue(dst []byte, v float64) []byte {
	start := len(dst)
	dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	if !isFloatSyntax(string(dst[start:])) {
		dst = append(dst, '.', '0')
	}
	return dst
}

// AggResponse is the /agg result.
type AggResponse struct {
	Series string  `json:"series"`
	Count  int     `json:"count"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Sum    int64   `json:"sum"`
	Avg    float64 `json:"avg"`
}

func (s *Server) handleAgg(w http.ResponseWriter, r *http.Request) {
	series := r.FormValue("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, errors.New("series is required"))
		return
	}
	from, to, err := timeRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.queries.Add(1)
	kind, err := s.be.SeriesKind(series)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if !intOnly(w, series, kind, "agg") {
		return
	}
	// The pushdown executor folds whole chunks in from footer statistics;
	// an empty range returns a zero bucket, matching the old fold's shape.
	b, err := s.be.Aggregate(series, from, to)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := AggResponse{Series: series, Count: b.Count, Min: b.Min, Max: b.Max, Sum: b.Sum}
	if b.Count > 0 {
		resp.Avg = b.Avg()
	}
	writeJSON(w, resp)
}

// BucketJSON is one /downsample window.
type BucketJSON struct {
	Start int64   `json:"start"`
	Count int     `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Sum   int64   `json:"sum"`
	Avg   float64 `json:"avg"`
}

func (s *Server) handleDownsample(w http.ResponseWriter, r *http.Request) {
	series := r.FormValue("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, errors.New("series is required"))
		return
	}
	from, to, err := timeRange(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	window, err := strconv.ParseInt(r.FormValue("window"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("window: %w", err))
		return
	}
	if from == math.MinInt64 {
		// Bucket starts are computed relative to from; an unbounded start
		// would overflow, so anchor at the series' first point.
		httpError(w, http.StatusBadRequest, errors.New("downsample requires from"))
		return
	}
	s.queries.Add(1)
	kind, err := s.be.SeriesKind(series)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if !intOnly(w, series, kind, "downsample") {
		return
	}
	buckets, err := s.be.Downsample(series, from, to, window)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrBadWindow) {
			status = http.StatusBadRequest
		}
		httpError(w, status, err)
		return
	}
	out := make([]BucketJSON, len(buckets))
	for i, b := range buckets {
		out[i] = BucketJSON{Start: b.Start, Count: b.Count, Min: b.Min, Max: b.Max, Sum: b.Sum, Avg: b.Avg()}
	}
	writeJSON(w, out)
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	names, err := s.be.Series()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, names)
}

// KindResponse is the GET /kind payload: the value kind of one series, ""
// when the series is unknown. Sharded routers use it to probe remote shards
// without transferring data.
type KindResponse struct {
	Series string `json:"series"`
	Kind   string `json:"kind"`
}

func (s *Server) handleKind(w http.ResponseWriter, r *http.Request) {
	series := r.FormValue("series")
	if series == "" {
		httpError(w, http.StatusBadRequest, errors.New("series is required"))
		return
	}
	kind, err := s.be.SeriesKind(series)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, KindResponse{Series: series, Kind: kind})
}

// CompactResponse acknowledges one POST /compact admin request.
type CompactResponse struct {
	Ran           bool              `json:"ran"` // false: policy found nothing due
	Files         int               `json:"files"`
	Series        int               `json:"series"`
	Points        int               `json:"points"`
	BytesBefore   int64             `json:"bytes_before"`
	BytesAfter    int64             `json:"bytes_after"`
	SeriesPackers map[string]string `json:"series_packers,omitempty"`
}

// handleCompact triggers maintenance on demand. mode=policy (default with a
// maintainer) runs one policy decision; mode=full merges every file. Without
// a maintainer only mode=full is available and runs through the backend (the
// engine default packer on a single node, a parallel per-shard fan-out on a
// sharded backend).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	mode := r.FormValue("mode")
	if mode == "" {
		if s.opt.Maintainer != nil {
			mode = "policy"
		} else {
			mode = "full"
		}
	}
	var (
		st  engine.CompactStats
		ran bool
		err error
	)
	switch mode {
	case "policy":
		if s.opt.Maintainer == nil {
			httpError(w, http.StatusBadRequest, errors.New("no maintainer configured; use mode=full"))
			return
		}
		st, ran, err = s.opt.Maintainer.RunOnce()
	case "full":
		if s.opt.Maintainer != nil {
			st, err = s.opt.Maintainer.CompactAll()
		} else if comp, ok := s.be.(Compactor); ok {
			st, err = comp.CompactAll()
		} else {
			httpError(w, http.StatusBadRequest, errors.New("backend does not support compaction"))
			return
		}
		ran = st.Files > 0
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q", mode))
		return
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, engine.ErrCompacting) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, CompactResponse{
		Ran:           ran,
		Files:         st.Files,
		Series:        st.Series,
		Points:        st.Points,
		BytesBefore:   st.BytesBefore,
		BytesAfter:    st.BytesAfter,
		SeriesPackers: st.SeriesPackers,
	})
}

// StatsResponse is the /stats payload: engine footprint, per-series
// breakdown, and serving counters.
type StatsResponse struct {
	Packer        string  `json:"packer,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Files         int     `json:"files"`
	SeriesCount   int     `json:"series_count"`
	MemPoints     int     `json:"mem_points"`
	DiskPoints    int     `json:"disk_points"`
	DiskBytes     int64   `json:"disk_bytes"`
	BytesPerPoint float64 `json:"bytes_per_point,omitempty"`
	IngestPoints  int64   `json:"ingest_points"`
	IngestBatches int64   `json:"ingest_batches"`
	IngestGroups  int64   `json:"ingest_groups"`
	// WAL group-commit counters: records/groups is the batching factor the
	// engine's commit groups achieve under the current write load.
	WALGroups  int64 `json:"wal_groups"`
	WALRecords int64 `json:"wal_records"`
	Queries    int64 `json:"queries"`
	// Engine-level compaction counters (all compactions, any caller).
	Compactions       int64 `json:"compactions"`
	CompactedFiles    int64 `json:"compacted_files"`
	CompactedBytesIn  int64 `json:"compacted_bytes_in"`
	CompactedBytesOut int64 `json:"compacted_bytes_out"`
	// Cache reports the engine's decoded-chunk cache.
	Cache CacheStats `json:"cache"`
	// Pushdown reports the compressed-domain executor's tier counters:
	// chunks answered from footer statistics alone, from inlier-plane
	// partial decode, and by full decode fallback.
	Pushdown pushdown.Snapshot `json:"pushdown"`
	// Maintenance reports the background maintainer, when one is attached.
	Maintenance *maintain.Stats     `json:"maintenance,omitempty"`
	Series      []engine.SeriesStat `json:"series,omitempty"`
	// Shards reports per-shard footprints and health when the backend is
	// sharded (absent on single-engine servers).
	Shards []ShardStatus `json:"shards,omitempty"`
}

// CacheStats is the decoded-chunk cache block of /stats: the raw counters
// plus the derived hit rate.
type CacheStats struct {
	chunkcache.Stats
	HitRate float64 `json:"hit_rate"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.be.Stats()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	resp := StatsResponse{
		Packer:        s.opt.PackerName,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Files:         st.Files,
		SeriesCount:   st.SeriesCount,
		MemPoints:     st.MemPoints,
		DiskPoints:    st.DiskPoints,
		DiskBytes:     st.DiskBytes,
		IngestPoints:  s.coal.points.Load(),
		IngestBatches: s.coal.batches.Load(),
		IngestGroups:  s.coal.groups.Load(),
		WALGroups:     st.WALGroups,
		WALRecords:    st.WALRecords,
		Queries:       s.queries.Load(),

		Compactions:       st.Compactions,
		CompactedFiles:    st.CompactedFiles,
		CompactedBytesIn:  st.CompactedBytesIn,
		CompactedBytesOut: st.CompactedBytesOut,

		Cache:    CacheStats{Stats: st.Cache, HitRate: st.Cache.HitRate()},
		Pushdown: st.Pushdown,
	}
	if s.opt.Maintainer != nil {
		ms := s.opt.Maintainer.Stats()
		resp.Maintenance = &ms
	}
	if st.DiskPoints > 0 {
		resp.BytesPerPoint = float64(st.DiskBytes) / float64(st.DiskPoints)
	}
	if r.FormValue("series") != "0" {
		ss, err := s.be.SeriesStats()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Series = ss
	}
	if sh, ok := s.be.(ShardStatuser); ok {
		resp.Shards = sh.ShardStatuses()
	}
	writeJSON(w, resp)
}

// HealthResponse is the /healthz payload. Single-engine servers report only
// the status; sharded backends add per-shard detail, and any unhealthy shard
// degrades the whole endpoint to 503.
type HealthResponse struct {
	Status string        `json:"status"` // "ok" or "degraded"
	Shards []ShardStatus `json:"shards,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.be.(ShardStatuser)
	if !ok {
		writeJSON(w, map[string]string{"status": "ok"})
		return
	}
	statuses := sh.ShardStatuses()
	resp := HealthResponse{Status: "ok", Shards: statuses}
	for _, st := range statuses {
		if !st.Healthy {
			resp.Status = "degraded"
		}
	}
	if resp.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}
