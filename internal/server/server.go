package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
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
}

// ErrShuttingDown reports an ingest submitted after shutdown began.
var ErrShuttingDown = errors.New("server: shutting down")

// Server is the HTTP serving layer: it translates the HTTP API onto backend
// calls. Use Handler for the mux and Close for graceful teardown (after
// http.Server.Shutdown has drained connections).
type Server struct {
	opt     Options
	be      Backend
	mux     *http.ServeMux
	start   time.Time
	queries atomic.Int64

	// commitMu is held shared by every ingest commit and exclusively by
	// Close while it sets closed, so Close waits out the commits in flight
	// and none starts after it.
	commitMu sync.RWMutex
	closed   bool
	// Ingest counters for /stats, counted after a successful commit.
	ingestPoints  atomic.Int64
	ingestBatches atomic.Int64
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

// Close refuses further ingest with ErrShuttingDown, waits for the commits
// in flight (every acknowledged write is then in the backend, and through
// its WAL) and flushes buffered writes to disk. Call after the HTTP listener
// has stopped accepting work.
func (s *Server) Close() error {
	s.commitMu.Lock()
	s.closed = true
	s.commitMu.Unlock()
	return s.be.Flush()
}

// commit hands one request's batch to the backend in one InsertGrouped call,
// on the caller's goroutine. Concurrent requests reach the backend
// concurrently; the engine's WAL group commit is what shares a log write and
// an fsync between them. An error answers only this request.
func (s *Server) commit(b *batch) error {
	s.commitMu.RLock()
	defer s.commitMu.RUnlock()
	if s.closed {
		return ErrShuttingDown
	}
	if err := s.be.InsertGrouped(b.ints, b.floats); err != nil {
		return err
	}
	s.ingestPoints.Add(int64(b.points))
	s.ingestBatches.Add(1)
	return nil
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
	b, status, err := readBatch(w, r)
	if err != nil {
		if status == http.StatusRequestTimeout {
			w.Header().Set("Connection", "close")
		}
		httpError(w, status, err)
		return
	}
	if b.points == 0 {
		writeJSON(w, IngestResponse{})
		return
	}
	if err := s.commit(b); err != nil {
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

// maxBodyBytes bounds one ingest request body; a larger one gets 413.
// Tests lower it.
var maxBodyBytes int64 = 8 << 20

// ingestBodyIdle is how long an /ingest body may go without a byte arriving
// before the request is cut with 408: as long as bosserver gives a client to
// send its headers.
var ingestBodyIdle = 10 * time.Second

// readBatch reads and parses an /ingest body, or returns the status that
// refuses it. The body is read into a buffer from bodyBufs, which goes back
// to the pool before readBatch returns: the batch keeps no reference into
// it.
func readBatch(w http.ResponseWriter, r *http.Request) (*batch, int, error) {
	bp := bodyBufs.Get().(*[]byte)
	body, err := readBody(w, r, (*bp)[:0], maxBodyBytes+1)
	defer putBody(bp, body)
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return nil, http.StatusRequestTimeout, err
	case err != nil:
		return nil, http.StatusBadRequest, err
	case int64(len(body)) > maxBodyBytes:
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	b, err := parseBatch(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return b, 0, nil
}

// bodyBufs holds /ingest body buffers, so steady ingest reads each body
// into a buffer an earlier request grew instead of growing a new one.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledBody is the largest body buffer putBody keeps: a rare large
// request does not leave its buffer held for every later one.
const maxPooledBody = 1 << 20

// putBody returns a body buffer to bodyBufs, unless it grew past
// maxPooledBody.
func putBody(bp *[]byte, body []byte) {
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyBufs.Put(bp)
	}
}

// readBody appends at most limit bytes of r's body to buf, growing it only
// as bytes arrive. While it reads, the connection's read deadline stays
// ingestBodyIdle past the last bytes that arrived, so a body that stops
// arriving is cut and one that trickles in is not, however long it takes in
// all. The deadline is cleared once the body is read; after a failed read it
// stays, so the server drops the connection instead of waiting for the rest
// of the body. A connection that takes no deadline is read to its end.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte, limit int64) ([]byte, error) {
	body := io.LimitReader(r.Body, limit)
	rc := http.NewResponseController(w)
	timed := rc.SetReadDeadline(time.Now().Add(ingestBodyIdle)) == nil
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if !timed {
				return buf, nil
			}
			return buf, rc.SetReadDeadline(time.Time{})
		}
		if err != nil {
			return buf, err
		}
		if n > 0 && timed {
			if err := rc.SetReadDeadline(time.Now().Add(ingestBodyIdle)); err != nil {
				return buf, err
			}
		}
	}
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

// flushBytes is how many CSV bytes rowWriter gathers before it sends them.
const flushBytes = 24 << 10

// frameRoom is the room rowWriter keeps before its rows for what leads a
// point stream frame: the kind byte, the record count and the column length.
const frameRoom = 1 + 2*binary.MaxVarintLen64

// rowBuf is a rowWriter's scratch: the bytes it sends and, for the point
// stream, the columns of the frame it fills.
type rowBuf struct {
	b []byte
	frameCols
}

// rowBufs holds rowWriter scratch, so a scan does not allocate its own per
// request.
var rowBufs = sync.Pool{New: func() any {
	return &rowBuf{b: make([]byte, 0, 32<<10)}
}}

// rowWriter batches the rows of a /query answer and sends them through the
// ResponseWriter in chunks, so long scans stream instead of accumulating.
// The rows are CSV, sent every flushBytes, or, when the request's Accept
// header asks for it, the point stream (pointstream.go), sent a frame of
// frameRecords rows at a time.
type rowWriter struct {
	w      http.ResponseWriter
	rb     *rowBuf // its frameCols hold the point stream's pending rows
	buf    []byte  // frameRoom bytes, then the pending CSV rows or frame
	stream bool
	kind   byte // the point stream's kind byte
	err    error
	wrote  bool // some rows went out, and with them the 200 status line
}

// newRowWriter sets the answer's headers and returns its writer. kind is
// the point stream's kind byte and seriesKind the X-Series-Kind header.
// Call release when the answer is done.
func newRowWriter(w http.ResponseWriter, r *http.Request, seriesKind string, kind byte) *rowWriter {
	rb := rowBufs.Get().(*rowBuf)
	c := &rowWriter{w: w, rb: rb, kind: kind}
	c.buf = append(rb.b[:0], make([]byte, frameRoom)...)
	c.stream = r.Header.Get("Accept") == pointsMediaType
	if c.stream {
		c.rb.reset(kind)
		w.Header().Set("Content-Type", pointsMediaType)
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Header().Set("X-Series-Kind", seriesKind)
	return c
}

// release returns the writer's scratch to the pool.
func (c *rowWriter) release() {
	c.rb.b = c.buf[:0]
	rowBufs.Put(c.rb)
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
		if err := c.room(); err != nil {
			return err
		}
		c.rb.cols[0] = append(c.rb.cols[0], t)
		c.rb.cols[1] = append(c.rb.cols[1], v)
		return nil
	}
	c.buf = strconv.AppendInt(c.buf, t, 10)
	c.buf = append(c.buf, ',')
	c.buf = strconv.AppendInt(c.buf, v, 10)
	c.buf = append(c.buf, '\n')
	return c.added()
}

func (c *rowWriter) writeFloat(t int64, v float64) error {
	if c.stream {
		if err := c.room(); err != nil {
			return err
		}
		c.rb.cols[0] = append(c.rb.cols[0], t)
		c.rb.cols[1] = append(c.rb.cols[1], int64(math.Float64bits(v)))
		return nil
	}
	c.buf = strconv.AppendInt(c.buf, t, 10)
	c.buf = append(c.buf, ',')
	c.buf = appendFloatValue(c.buf, v)
	c.buf = append(c.buf, '\n')
	return c.added()
}

func (c *rowWriter) writeBucket(b engine.Bucket) error {
	if c.stream {
		if err := c.room(); err != nil {
			return err
		}
		for i, v := range [maxFields]int64{b.Start, int64(b.Count), b.Min, b.Max, b.Sum} {
			c.rb.cols[i] = append(c.rb.cols[i], v)
		}
		return nil
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

// room makes room in the point stream's columns for one more row: a full
// frame goes out first.
func (c *rowWriter) room() error {
	if len(c.rb.cols[0]) == frameRecords {
		return c.flush()
	}
	return c.err
}

// added flushes the CSV rows once enough are pending.
func (c *rowWriter) added() error {
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
		if n := len(c.rb.cols[0]); n > 0 {
			c.buf = c.rb.appendColumns(c.buf, c.kind)
			var hdr [2 * binary.MaxVarintLen64]byte
			h := binary.PutUvarint(hdr[:], uint64(n))
			h += binary.PutUvarint(hdr[h:], uint64(len(c.buf)-frameRoom))
			start -= copy(c.buf[start-h:], hdr[:h])
		}
		if last {
			c.buf = append(c.buf, 0)
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
	c.buf = c.buf[:frameRoom]
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
	// IngestGroups counts backend commits. Each request commits on its
	// own, so it equals IngestBatches; batching across requests happens in
	// the engine's WAL group commit (WALRecords/WALGroups).
	IngestGroups int64 `json:"ingest_groups"`
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
	batches := s.ingestBatches.Load()
	resp := StatsResponse{
		Packer:        s.opt.PackerName,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Files:         st.Files,
		SeriesCount:   st.SeriesCount,
		MemPoints:     st.MemPoints,
		DiskPoints:    st.DiskPoints,
		DiskBytes:     st.DiskBytes,
		IngestPoints:  s.ingestPoints.Load(),
		IngestBatches: batches,
		IngestGroups:  batches,
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
