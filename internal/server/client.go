package server

import (
	"bufio"
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

// Client is the typed Go client for the serving API. It speaks the same line
// protocol and JSON shapes the handlers emit, and is what cmd/bosperf's
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

// get issues a GET through the retry layer.
func (c *Client) get(u string) (*http.Response, error) {
	return c.doRetry(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, u, nil)
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
	resp, err := c.get(u)
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
// use: one request per shard per commit group instead of one per series.
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

// queryCSV issues GET /query with q. A status other than 200 is returned as
// a *StatusError.
func (c *Client) queryCSV(q url.Values) (*http.Response, error) {
	resp, err := c.get(c.base + "/query?" + q.Encode())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// QueryEach streams the integer points of a series in [from, to] through fn
// without buffering the whole result. fn returning an error aborts the scan
// and returns that error.
func (c *Client) QueryEach(series string, from, to int64, fn func(tsfile.Point) error) error {
	resp, err := c.queryCSV(rangeQuery(series, from, to))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return eachRow(resp.Body, parseInt, fn)
}

// Window streams windowed aggregates over GET /query?window= through fn in
// window-start order, one engine.Bucket per non-empty window. Like every
// client call it rides the retry layer, so transient connection failures
// replay the whole request.
func (c *Client) Window(series string, from, to, window int64, fn func(Bucket) error) error {
	q := rangeQuery(series, from, to)
	q.Set("window", strconv.FormatInt(window, 10))
	resp, err := c.queryCSV(q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return eachLine(resp.Body, func(line []byte) error {
		b, err := parseBucketRow(line)
		if err != nil {
			return err
		}
		return fn(b)
	})
}

// Bucket is one windowed-aggregate row as the client surfaces it.
type Bucket = engine.Bucket

// parseBucketRow parses one "start,count,min,max,sum,avg" CSV row in place.
// The avg column is derived (it re-computes from sum/count) and is ignored.
func parseBucketRow(line []byte) (Bucket, error) {
	var fields [6][]byte
	if bytes.Count(line, []byte{','}) != len(fields)-1 {
		return Bucket{}, fmt.Errorf("client: malformed bucket row %q", line)
	}
	rest := line
	for i := range fields[:len(fields)-1] {
		j := bytes.IndexByte(rest, ',')
		fields[i], rest = rest[:j], rest[j+1:]
	}
	fields[len(fields)-1] = rest
	var b Bucket
	var err error
	if b.Start, err = parseInt(fields[0]); err == nil {
		// Atoi, like Bucket.Count's int, is range-checked at the platform's
		// int width.
		b.Count, err = strconv.Atoi(string(fields[1]))
	}
	if err == nil {
		b.Min, err = parseInt(fields[2])
	}
	if err == nil {
		b.Max, err = parseInt(fields[3])
	}
	if err == nil {
		b.Sum, err = parseInt(fields[4])
	}
	if err != nil {
		return Bucket{}, fmt.Errorf("client: bucket row %q: %w", line, err)
	}
	return b, nil
}

// QueryFilterEach streams the points of a series whose value falls in
// [vmin, vmax] through fn in time order, over GET /query?vmin=&vmax=.
func (c *Client) QueryFilterEach(series string, from, to, vmin, vmax int64, fn func(tsfile.Point) error) error {
	q := rangeQuery(series, from, to)
	q.Set("vmin", strconv.FormatInt(vmin, 10))
	q.Set("vmax", strconv.FormatInt(vmax, 10))
	resp, err := c.queryCSV(q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return eachRow(resp.Body, parseInt, fn)
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
// form, which tests compare across runs.
func (c *Client) QueryRaw(series string, from, to int64) ([]byte, error) {
	resp, err := c.queryCSV(rangeQuery(series, from, to))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Query returns the integer points of a series in [from, to].
func (c *Client) Query(series string, from, to int64) ([]tsfile.Point, error) {
	return queryAll(c, series, from, to, parseInt)
}

// QueryFloats returns the float points of a series in [from, to].
func (c *Client) QueryFloats(series string, from, to int64) ([]tsfile.FloatPoint, error) {
	return queryAll(c, series, from, to, parseFloat)
}

// queryAll collects a range scan's rows, each value parsed by parse.
func queryAll[V int64 | float64](c *Client, series string, from, to int64, parse func([]byte) (V, error)) ([]tsfile.Sample[V], error) {
	resp, err := c.queryCSV(rangeQuery(series, from, to))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []tsfile.Sample[V]
	err = eachRow(resp.Body, parse, func(p tsfile.Sample[V]) error {
		out = append(out, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Response rows are scanned in place in a pooled buffer, so a scan allocates
// nothing per row and nothing large per request.
const (
	// scanBufSize is the line buffer a scan starts with. It holds many rows
	// at once; a longer row grows a private buffer up to maxRowBytes.
	scanBufSize = 64 << 10
	// maxRowBytes bounds one CSV row; a longer one fails the scan with
	// bufio.ErrTooLong.
	maxRowBytes = 1 << 20
)

var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, scanBufSize)
	return &b
}}

// eachLine calls fn with every line of body, without its line ending. The
// line is only valid until fn returns.
func eachLine(body io.Reader, fn func(line []byte) error) error {
	buf := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(body)
	sc.Buffer(*buf, maxRowBytes)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// eachRow calls fn with every "timestamp,value" row of body, the value
// parsed by parse.
func eachRow[V int64 | float64](body io.Reader, parse func([]byte) (V, error), fn func(tsfile.Sample[V]) error) error {
	return eachLine(body, func(line []byte) error {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			return fmt.Errorf("client: malformed row %q", line)
		}
		t, err := parseInt(line[:i])
		if err != nil {
			return fmt.Errorf("client: timestamp %q: %w", line[:i], err)
		}
		v, err := parse(line[i+1:])
		if err != nil {
			return fmt.Errorf("client: value %q: %w", line[i+1:], err)
		}
		return fn(tsfile.Sample[V]{T: t, V: v})
	})
}

// parseInt returns exactly what strconv.ParseInt(string(b), 10, 64) returns.
// An optional sign and at most 18 digits cannot overflow, so they are
// converted here; anything else, every error included, goes to strconv.
func parseInt(b []byte) (int64, error) {
	digits := b
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	if b[0] == '-' {
		n = -n
	}
	return n, nil
}

// parseFloat parses a float value. string(b) does not escape, so converting
// any value the server writes (at most 24 bytes) does not allocate.
func parseFloat(b []byte) (float64, error) { return strconv.ParseFloat(string(b), 64) }

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
	resp, err := c.get(c.base + "/healthz")
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
