package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"bos/internal/tsfile"
)

// bodyClient returns a client whose every request is answered 200 with body
// under contentType.
func bodyClient(t *testing.T, contentType string, body []byte) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentType)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// streamOf returns the point stream of the given kind that the server's
// rowWriter sends for the rows write adds.
func streamOf(kind byte, write func(cw *rowWriter)) []byte {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	req.Header.Set("Accept", pointsMediaType)
	cw := newRowWriter(rec, req, "int", kind)
	defer cw.release()
	write(cw)
	cw.end()
	return rec.Body.Bytes()
}

// typedScan is one typed /query read of the client: the stream kind it
// takes, and a run that returns what it read. returns marks the calls that
// hand back a slice rather than stream through a callback.
type typedScan struct {
	name    string
	kind    byte
	returns bool
	run     func(c *Client) (any, error)
}

func typedScans() []typedScan {
	points := func(scan func(c *Client, fn func(tsfile.Point) error) error) func(c *Client) (any, error) {
		return func(c *Client) (any, error) {
			var out []tsfile.Point
			err := scan(c, func(p tsfile.Point) error { out = append(out, p); return nil })
			return out, err
		}
	}
	return []typedScan{
		{name: "QueryEach", kind: kindInt, run: points(func(c *Client, fn func(tsfile.Point) error) error {
			return c.QueryEach("s", math.MinInt64, math.MaxInt64, fn)
		})},
		{name: "QueryFilterEach", kind: kindInt, run: points(func(c *Client, fn func(tsfile.Point) error) error {
			return c.QueryFilterEach("s", math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64, fn)
		})},
		{name: "Query", kind: kindInt, returns: true, run: func(c *Client) (any, error) {
			return c.Query("s", math.MinInt64, math.MaxInt64)
		}},
		{name: "QueryFloats", kind: kindFloat, returns: true, run: func(c *Client) (any, error) {
			return c.QueryFloats("s", math.MinInt64, math.MaxInt64)
		}},
		{name: "Window", kind: kindWindow, run: func(c *Client) (any, error) {
			var out []Bucket
			err := c.Window("s", 0, math.MaxInt64, 10, func(b Bucket) error { out = append(out, b); return nil })
			return out, err
		}},
	}
}

// TestClientParsesRows feeds fixed point streams to every typed scan of the
// client: a valid stream of each kind reads back exactly, and every
// malformed one is an error, never a partial answer.
func TestClientParsesRows(t *testing.T) {
	ints := []tsfile.Point{{T: math.MinInt64, V: math.MaxInt64}, {T: math.MaxInt64, V: math.MinInt64}, {T: 0, V: -1}}
	floats := []tsfile.FloatPoint{{T: math.MinInt64, V: 0.5}, {T: math.MaxInt64, V: math.Inf(-1)}, {T: 0, V: -1e300}}
	buckets := []Bucket{
		{Start: math.MinInt64, Count: 3, Min: -1, Max: math.MaxInt64, Sum: 7},
		{Start: 10, Count: math.MaxInt, Min: math.MinInt64, Max: 4, Sum: math.MinInt64},
	}
	valid := map[byte][]byte{
		kindInt: streamOf(kindInt, func(cw *rowWriter) {
			for _, p := range ints {
				cw.writeInt(p.T, p.V)
			}
		}),
		kindFloat: streamOf(kindFloat, func(cw *rowWriter) {
			for _, p := range floats {
				cw.writeFloat(p.T, p.V)
			}
		}),
		kindWindow: streamOf(kindWindow, func(cw *rowWriter) {
			for _, b := range buckets {
				cw.writeBucket(b)
			}
		}),
	}
	want := map[byte]any{kindInt: ints, kindFloat: floats, kindWindow: buckets}
	// The stream each read refuses as the wrong kind.
	wrong := map[byte]byte{kindInt: kindFloat, kindFloat: kindWindow, kindWindow: kindInt}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	for _, sc := range typedScans() {
		good := valid[sc.kind]
		got, err := sc.run(bodyClient(t, pointsMediaType, good))
		if err != nil || !reflect.DeepEqual(got, want[sc.kind]) {
			t.Errorf("%s of a valid stream: got %v, %v; want %v", sc.name, got, err, want[sc.kind])
		}
		for _, tc := range []struct {
			name        string
			contentType string
			body        []byte
			is          error // when set, the error must wrap it
		}{
			{name: "empty body", body: nil, is: io.ErrUnexpectedEOF},
			{name: "cut mid-record", body: good[:4], is: io.ErrUnexpectedEOF},
			{name: "cut before the end frame", body: good[:len(good)-1], is: io.ErrUnexpectedEOF},
			{name: "bytes after the end frame", body: cat(good, []byte{0})},
			{name: "unknown kind byte", body: cat([]byte{'x'}, good[1:])},
			{name: "wrong kind", body: valid[wrong[sc.kind]]},
			{name: "over-long varint", body: cat([]byte{sc.kind, 1}, bytes.Repeat([]byte{0xff}, 11), []byte{0})},
			{name: "CSV body", contentType: "text/csv", body: []byte("1,2\n3,4\n")},
		} {
			if tc.contentType == "" {
				tc.contentType = pointsMediaType
			}
			if tc.name == "wrong kind" && sc.kind == kindInt {
				tc.is = tsfile.ErrKindMismatch
			}
			got, err := sc.run(bodyClient(t, tc.contentType, tc.body))
			var se *StatusError
			switch {
			case err == nil:
				t.Errorf("%s, %s: no error, read %v", sc.name, tc.name, got)
			case errors.As(err, &se):
				t.Errorf("%s, %s: got status error %v", sc.name, tc.name, err)
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Errorf("%s, %s: got %v, want an error wrapping %v", sc.name, tc.name, err, tc.is)
			case sc.returns && reflect.ValueOf(got).Len() != 0:
				t.Errorf("%s, %s: returned %v beside %v", sc.name, tc.name, got, err)
			}
		}
	}

	// A float read of int points converts each value as ParseFloat does its
	// decimal text.
	got, err := bodyClient(t, pointsMediaType, valid[kindInt]).QueryFloats("s", math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ints {
		text := strconv.FormatInt(p.V, 10)
		if f, _ := strconv.ParseFloat(text, 64); got[i] != (tsfile.FloatPoint{T: p.T, V: f}) {
			t.Errorf("QueryFloats of int point %v: got %v, want value %v", p, got[i], f)
		}
	}
}

// TestClientIngestBodies pins the line-protocol bytes the ingest calls post.
func TestClientIngestBodies(t *testing.T) {
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(b))
		writeJSON(w, IngestResponse{})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ints := []tsfile.Point{{T: math.MinInt64, V: math.MaxInt64}, {T: 0, V: -7}}
	floats := []tsfile.FloatPoint{{T: 1, V: 2}, {T: -2, V: 0.1}, {T: 4, V: 1e21}}
	if _, err := c.Ingest("a", ints); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestFloats("f", floats); err != nil {
		t.Fatal(err)
	}
	batchInts := map[string][]tsfile.Point{"b": ints[1:], "a": ints[:1]}
	if _, err := c.IngestBatch(batchInts, map[string][]tsfile.FloatPoint{"f": floats[:2]}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a,-9223372036854775808,9223372036854775807\na,0,-7\n",
		"f,1,2.0\nf,-2,0.1\nf,4,1e+21\n",
		"a,-9223372036854775808,9223372036854775807\nb,0,-7\nf,1,2.0\nf,-2,0.1\n",
	}
	if !reflect.DeepEqual(bodies, want) {
		t.Errorf("posted bodies\n%q\nwant\n%q", bodies, want)
	}
}

// TestQueryFloatsExactLength checks that QueryFloats answers in a slice of
// exactly its length, and that an answer stays intact after later scans
// reuse the buffer it was decoded in.
func TestQueryFloatsExactLength(t *testing.T) {
	var want [2][]tsfile.FloatPoint
	var c [2]*Client
	for i := range want {
		for k := 0; k < 4096+i; k++ {
			want[i] = append(want[i], tsfile.FloatPoint{T: int64(k), V: float64(k*(i+1)) / 8})
		}
		c[i] = bodyClient(t, pointsMediaType, streamOf(kindFloat, func(cw *rowWriter) {
			for _, p := range want[i] {
				cw.writeFloat(p.T, p.V)
			}
		}))
	}
	var got [2][]tsfile.FloatPoint
	for i := range got {
		var err error
		if got[i], err = c[i].QueryFloats("s", math.MinInt64, math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		if cap(got[i]) != len(got[i]) {
			t.Errorf("scan %d: %d points in a slice of %d", i, len(got[i]), cap(got[i]))
		}
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("scan %d: read %d points, want %d, or they differ", i, len(got[i]), len(want[i]))
		}
	}
}
