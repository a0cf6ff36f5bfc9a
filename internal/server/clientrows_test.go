package server

import (
	"bufio"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bos/internal/tsfile"
)

// bodyClient returns a client whose every request is answered 200 with body.
func bodyClient(t *testing.T, body string) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// Checks on the error a client call returns for a malformed body.
func wantErrIs(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func wantErrText(sub string) func(error) bool {
	return func(err error) bool {
		var se *StatusError
		return err != nil && !errors.As(err, &se) && strings.Contains(err.Error(), sub)
	}
}

// longRow is one row past the client's 1 MiB row limit.
var longRow = strings.Repeat("1", 1<<20) + ",1\n"

// TestClientParsesRows feeds fixed CSV bodies to every typed scan call of the
// client and checks the rows it accepts and the ones it refuses.
func TestClientParsesRows(t *testing.T) {
	intScans := map[string]func(c *Client) ([]tsfile.Point, error){
		"QueryEach": func(c *Client) ([]tsfile.Point, error) {
			var out []tsfile.Point
			err := c.QueryEach("s", math.MinInt64, math.MaxInt64, func(p tsfile.Point) error {
				out = append(out, p)
				return nil
			})
			return out, err
		},
		"QueryFilterEach": func(c *Client) ([]tsfile.Point, error) {
			var out []tsfile.Point
			err := c.QueryFilterEach("s", math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64, func(p tsfile.Point) error {
				out = append(out, p)
				return nil
			})
			return out, err
		},
		"Query": func(c *Client) ([]tsfile.Point, error) {
			return c.Query("s", math.MinInt64, math.MaxInt64)
		},
	}
	intCases := []struct {
		name string
		body string
		want []tsfile.Point
		err  func(error) bool // nil: the body parses to want
	}{
		{name: "empty", body: ""},
		{
			name: "extremes",
			body: "-9223372036854775808,9223372036854775807\n9223372036854775807,-9223372036854775808\n",
			want: []tsfile.Point{{T: math.MinInt64, V: math.MaxInt64}, {T: math.MaxInt64, V: math.MinInt64}},
		},
		{
			name: "18 and 19 digits",
			body: "999999999999999999,-999999999999999999\n1000000000000000000,-1000000000000000000\n",
			want: []tsfile.Point{{T: 999999999999999999, V: -999999999999999999}, {T: 1e18, V: -1e18}},
		},
		{
			name: "signs and leading zeros",
			body: "-0,+5\n+0,-0\n007,-0010\n00000000000000000000000000001,2\n",
			want: []tsfile.Point{{T: 0, V: 5}, {T: 0, V: 0}, {T: 7, V: -10}, {T: 1, V: 2}},
		},
		{name: "no final newline", body: "1,2\n3,4", want: []tsfile.Point{{T: 1, V: 2}, {T: 3, V: 4}}},
		{name: "CRLF rows", body: "1,2\r\n3,4\r\n", want: []tsfile.Point{{T: 1, V: 2}, {T: 3, V: 4}}},
		{name: "no comma", body: "1,2\n3\n", err: wantErrText("malformed row")},
		{name: "empty line", body: "1,2\n\n3,4\n", err: wantErrText("malformed row")},
		{name: "empty timestamp", body: ",5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "non-numeric timestamp", body: "1x,5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "underscore timestamp", body: "1_000,5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "sign only", body: "-,5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "empty value", body: "1,\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "extra field", body: "1,2,3\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "timestamp out of range", body: "-9223372036854775809,1\n", err: wantErrIs(strconv.ErrRange)},
		{name: "value out of range", body: "1,9223372036854775808\n", err: wantErrIs(strconv.ErrRange)},
		{name: "float value", body: "1,2\n2,0.5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "row over 1 MiB", body: "1,2\n" + longRow, err: wantErrIs(bufio.ErrTooLong)},
	}
	for _, tc := range intCases {
		c := bodyClient(t, tc.body)
		for name, scan := range intScans {
			got, err := scan(c)
			switch {
			case tc.err != nil && !tc.err(err):
				t.Errorf("%s %s: got error %v", tc.name, name, err)
			case tc.err == nil && err != nil:
				t.Errorf("%s %s: %v", tc.name, name, err)
			case tc.err == nil && !reflect.DeepEqual(got, tc.want):
				t.Errorf("%s %s: got %v, want %v", tc.name, name, got, tc.want)
			}
		}
	}

	floatCases := []struct {
		name string
		body string
		want []tsfile.FloatPoint
		err  func(error) bool
	}{
		{
			name: "values",
			body: "-9223372036854775808,0.5\n-1,-1e+300\n0,5\n+7,-0.0\n9223372036854775807,2.5e-7\n",
			want: []tsfile.FloatPoint{
				{T: math.MinInt64, V: 0.5}, {T: -1, V: -1e300}, {T: 0, V: 5},
				{T: 7, V: math.Copysign(0, -1)}, {T: math.MaxInt64, V: 2.5e-7},
			},
		},
		{name: "no comma", body: "1\n", err: wantErrText("malformed row")},
		{name: "non-numeric timestamp", body: "x,0.5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "float timestamp", body: "1.5,0.5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "non-numeric value", body: "1,abc\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "value out of range", body: "1,1e400\n", err: wantErrIs(strconv.ErrRange)},
		{name: "row over 1 MiB", body: longRow, err: wantErrIs(bufio.ErrTooLong)},
	}
	for _, tc := range floatCases {
		got, err := bodyClient(t, tc.body).QueryFloats("s", math.MinInt64, math.MaxInt64)
		switch {
		case tc.err != nil && !tc.err(err):
			t.Errorf("%s QueryFloats: got error %v", tc.name, err)
		case tc.err == nil && err != nil:
			t.Errorf("%s QueryFloats: %v", tc.name, err)
		case tc.err == nil && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s QueryFloats: got %v, want %v", tc.name, got, tc.want)
		}
	}

	bucketCases := []struct {
		name string
		body string
		want []Bucket
		err  func(error) bool
	}{
		{
			name: "rows",
			body: "0,3,-1,9223372036854775807,7,2.3333333333333335\n10,1,+4,4,4,x\n",
			want: []Bucket{{Start: 0, Count: 3, Min: -1, Max: math.MaxInt64, Sum: 7}, {Start: 10, Count: 1, Min: 4, Max: 4, Sum: 4}},
		},
		{name: "five fields", body: "0,1,2,3,4\n", err: wantErrText("malformed bucket row")},
		{name: "seven fields", body: "0,1,2,3,4,5,6\n", err: wantErrText("malformed bucket row")},
		{name: "empty line", body: "\n", err: wantErrText("malformed bucket row")},
		{name: "non-numeric count", body: "0,x,2,3,4,5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "float min", body: "0,1,2.5,3,4,5\n", err: wantErrIs(strconv.ErrSyntax)},
		{name: "sum out of range", body: "0,1,2,3,99999999999999999999,5\n", err: wantErrIs(strconv.ErrRange)},
		{name: "row over 1 MiB", body: strings.Repeat("1", 1<<20) + ",1,1,1,1,1\n", err: wantErrIs(bufio.ErrTooLong)},
	}
	for _, tc := range bucketCases {
		var got []Bucket
		err := bodyClient(t, tc.body).Window("s", 0, math.MaxInt64, 10, func(b Bucket) error {
			got = append(got, b)
			return nil
		})
		switch {
		case tc.err != nil && !tc.err(err):
			t.Errorf("%s Window: got error %v", tc.name, err)
		case tc.err == nil && err != nil:
			t.Errorf("%s Window: %v", tc.name, err)
		case tc.err == nil && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s Window: got %v, want %v", tc.name, got, tc.want)
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
