package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// Client is the typed Go client for the serving API. It writes the ingest
// line protocol, reads every /query answer as the point stream
// (pointstream.go) and the other endpoints' JSON, and is what cmd/bosperf's
// workloads and internal/cluster's remote shards drive.
type Client struct {
	base string
	hc   *http.Client

	// retry configuration (retry.go); retryAttempts 1 = no retries.
	retryAttempts int
	retryBase     time.Duration
}

// NewClient returns a client for a server at base (e.g. "http://127.0.0.1:8086").
func NewClient(base string, hc *http.Client, opts ...ClientOption) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(base, "/"), hc: hc, retryAttempts: 1}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError is a non-2xx API response: the HTTP status plus the
// server-supplied error message, if the body carried one.
type StatusError struct {
	Code    int    // e.g. 404
	Status  string // e.g. "404 Not Found"
	Message string // server error body, may be empty
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s", e.Status, e.Message)
	}
	return "server: " + e.Status
}

// decodeError turns a non-2xx JSON error body into a *StatusError.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	se := &StatusError{Code: resp.StatusCode, Status: resp.Status}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err == nil {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil {
			se.Message = e.Error
		}
	}
	return se
}

// get issues a GET through the retry layer, with an Accept header unless
// accept is "".
func (c *Client) get(u, accept string) (*http.Response, error) {
	return c.doRetry(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err == nil && accept != "" {
			req.Header.Set("Accept", accept)
		}
		return req, err
	})
}

// post issues a POST through the retry layer; the body is rebuilt per
// attempt, so replays resend the full payload.
func (c *Client) post(u, contentType string, body []byte) (*http.Response, error) {
	return c.doRetry(func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(http.MethodPost, u, rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	})
}

func (c *Client) getJSON(path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.get(u, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// IngestLines posts a raw line-protocol payload.
func (c *Client) IngestLines(payload []byte) (IngestResponse, error) {
	var out IngestResponse
	resp, err := c.post(c.base+"/ingest", "text/plain", payload)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, decodeError(resp)
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Ingest posts one batch of integer points for a series.
func (c *Client) Ingest(series string, pts []tsfile.Point) (IngestResponse, error) {
	return c.IngestLines(appendLines(nil, series, pts, appendIntValue))
}

// IngestFloats posts one batch of float points for a series. Values are
// formatted so they always take the protocol's float path.
func (c *Client) IngestFloats(series string, pts []tsfile.FloatPoint) (IngestResponse, error) {
	return c.IngestLines(appendLines(nil, series, pts, appendFloatValue))
}

// IngestBatch posts many series — integer and float — as one line-protocol
// payload, series in sorted order. This is the grouped form sharded routers
// use: each ingest request they route becomes one request per shard instead
// of one per series.
func (c *Client) IngestBatch(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) (IngestResponse, error) {
	var body []byte
	for _, s := range sortedKeys(ints) {
		body = appendLines(body, s, ints[s], appendIntValue)
	}
	for _, s := range sortedKeys(floats) {
		body = appendLines(body, s, floats[s], appendFloatValue)
	}
	return c.IngestLines(body)
}

// appendLines appends one line-protocol line "series,t,v" per point, the
// value formatted by appendValue.
func appendLines[V int64 | float64](dst []byte, series string, pts []tsfile.Sample[V], appendValue func([]byte, V) []byte) []byte {
	for _, p := range pts {
		dst = append(dst, series...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, p.T, 10)
		dst = append(dst, ',')
		dst = appendValue(dst, p.V)
		dst = append(dst, '\n')
	}
	return dst
}

func appendIntValue(dst []byte, v int64) []byte { return strconv.AppendInt(dst, v, 10) }

// rangeQuery returns the query parameters naming series over [from, to].
func rangeQuery(series string, from, to int64) url.Values {
	q := url.Values{}
	q.Set("series", series)
	q.Set("from", strconv.FormatInt(from, 10))
	q.Set("to", strconv.FormatInt(to, 10))
	return q
}

// query issues GET /query with q. A status other than 200 is returned as a
// *StatusError.
func (c *Client) query(q url.Values, accept string) (*http.Response, error) {
	resp, err := c.get(c.base+"/query?"+q.Encode(), accept)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// scan issues GET /query with q, asks for the point stream and calls fn
// with each record of the answer; want is the stream kind the read takes
// (readStream).
func (c *Client) scan(q url.Values, want byte, fn func(kind byte, r *record) error) error {
	resp, err := c.query(q, pointsMediaType)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != pointsMediaType {
		return fmt.Errorf("client: /query answered %q, want %q", ct, pointsMediaType)
	}
	return readStream(resp.Body, want, fn)
}

// QueryEach streams the integer points of a series in [from, to] through fn
// without buffering the whole result. fn returning an error aborts the scan
// and returns that error. A float series is an error wrapping
// tsfile.ErrKindMismatch.
func (c *Client) QueryEach(series string, from, to int64, fn func(tsfile.Point) error) error {
	return c.scan(rangeQuery(series, from, to), kindInt, func(_ byte, r *record) error {
		return fn(tsfile.Point{T: r.t, V: r.v})
	})
}

// Window streams windowed aggregates over GET /query?window= through fn in
// window-start order, one engine.Bucket per non-empty window. Like every
// client call it rides the retry layer, so transient connection failures
// replay the whole request.
func (c *Client) Window(series string, from, to, window int64, fn func(Bucket) error) error {
	q := rangeQuery(series, from, to)
	q.Set("window", strconv.FormatInt(window, 10))
	return c.scan(q, kindWindow, func(_ byte, r *record) error { return fn(r.b) })
}

// Bucket is one windowed-aggregate row as the client surfaces it.
type Bucket = engine.Bucket

// QueryFilterEach streams the points of a series whose value falls in
// [vmin, vmax] through fn in time order, over GET /query?vmin=&vmax=.
func (c *Client) QueryFilterEach(series string, from, to, vmin, vmax int64, fn func(tsfile.Point) error) error {
	q := rangeQuery(series, from, to)
	q.Set("vmin", strconv.FormatInt(vmin, 10))
	q.Set("vmax", strconv.FormatInt(vmax, 10))
	return c.scan(q, kindInt, func(_ byte, r *record) error {
		return fn(tsfile.Point{T: r.t, V: r.v})
	})
}

// SeriesKind reports the value kind of a series over GET /kind: "int",
// "float", or "" when the server does not know the series.
func (c *Client) SeriesKind(series string) (string, error) {
	q := url.Values{}
	q.Set("series", series)
	var out KindResponse
	if err := c.getJSON("/kind", q, &out); err != nil {
		return "", err
	}
	return out.Kind, nil
}

// QueryRaw returns the raw CSV body of a range scan — the byte-exact wire
// form a client without the point stream's media type gets, which tests
// compare across runs.
func (c *Client) QueryRaw(series string, from, to int64) ([]byte, error) {
	resp, err := c.query(rangeQuery(series, from, to), "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Query returns the integer points of a series in [from, to]. A float
// series is an error wrapping tsfile.ErrKindMismatch.
func (c *Client) Query(series string, from, to int64) ([]tsfile.Point, error) {
	var out []tsfile.Point
	err := c.QueryEach(series, from, to, func(p tsfile.Point) error {
		out = append(out, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// floatBufs holds QueryFloats' decode buffers: a scan decodes into one an
// earlier scan grew, then copies its answer out at its exact length.
var floatBufs = sync.Pool{New: func() any {
	b := make([]tsfile.FloatPoint, 0, 4096)
	return &b
}}

// maxPooledFloats is the largest decode buffer, in points, QueryFloats puts
// back: 1 MiB.
const maxPooledFloats = 1 << 16

// QueryFloats returns the points of a series in [from, to] as floats; the
// values of an integer series convert with float64(v).
func (c *Client) QueryFloats(series string, from, to int64) ([]tsfile.FloatPoint, error) {
	bp := floatBufs.Get().(*[]tsfile.FloatPoint)
	buf := (*bp)[:0]
	err := c.scan(rangeQuery(series, from, to), kindFloat, func(kind byte, r *record) error {
		v := r.f
		if kind == kindInt {
			v = float64(r.v)
		}
		buf = append(buf, tsfile.FloatPoint{T: r.t, V: v})
		return nil
	})
	var out []tsfile.FloatPoint
	if err == nil && len(buf) > 0 {
		out = make([]tsfile.FloatPoint, len(buf))
		copy(out, buf)
	}
	if cap(buf) <= maxPooledFloats {
		*bp = buf[:0]
		floatBufs.Put(bp)
	}
	return out, err
}

// Agg fetches count/min/max/sum/avg for a series range.
func (c *Client) Agg(series string, from, to int64) (AggResponse, error) {
	var out AggResponse
	err := c.getJSON("/agg", rangeQuery(series, from, to), &out)
	return out, err
}

// Downsample fetches fixed-window aggregates.
func (c *Client) Downsample(series string, from, to, window int64) ([]BucketJSON, error) {
	q := rangeQuery(series, from, to)
	q.Set("window", strconv.FormatInt(window, 10))
	var out []BucketJSON
	err := c.getJSON("/downsample", q, &out)
	return out, err
}

// Series lists every series name.
func (c *Client) Series() ([]string, error) {
	var out []string
	err := c.getJSON("/series", nil, &out)
	return out, err
}

// Compact triggers maintenance: mode "policy" runs one tiered-policy
// decision, mode "full" merges every file, "" lets the server pick its
// default.
func (c *Client) Compact(mode string) (CompactResponse, error) {
	u := c.base + "/compact"
	if mode != "" {
		u += "?" + url.Values{"mode": {mode}}.Encode()
	}
	var out CompactResponse
	resp, err := c.post(u, "application/json", nil)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, decodeError(resp)
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// Stats fetches server and storage statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.getJSON("/stats", nil, &out)
	return out, err
}

// Health checks /healthz. A degraded sharded server answers 503 with
// per-shard detail; that body is folded into the returned error.
func (c *Client) Health() error {
	resp, err := c.get(c.base+"/healthz", "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	var out HealthResponse
	if json.Unmarshal(body, &out) == nil && out.Status == "ok" && resp.StatusCode == http.StatusOK {
		return nil
	}
	return fmt.Errorf("client: unhealthy: %s: %s", resp.Status, body)
}
