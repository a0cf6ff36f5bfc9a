package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// TestQueryCSVBytes pins, byte for byte, the CSV a /query without the point
// stream's media type answers: a raw scan of an int and a float series, a
// window, a filter, and empty ranges of each. The data holds negative and
// 19-digit integers and whole, tiny and huge floats, half of it flushed.
func TestQueryCSVBytes(t *testing.T) {
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ints := []tsfile.Point{
		{T: -3, V: math.MinInt64}, {T: -2, V: -1}, {T: 0, V: 0}, {T: 1, V: 7},
		{T: 2, V: -1234567890123456789}, {T: 5, V: math.MaxInt64},
		{T: 11, V: 42}, {T: 12, V: -42}, {T: 25, V: 1_000_000_000_000_000_000},
	}
	floats := []tsfile.FloatPoint{
		{T: -1, V: 3}, {T: 0, V: math.Copysign(0, -1)}, {T: 1, V: -0.5},
		{T: 2, V: 5e-324}, {T: 3, V: 1e-300}, {T: 4, V: 6.02214076e23},
		{T: 5, V: -math.MaxFloat64}, {T: 6, V: 1e21}, {T: 7, V: 123456789},
	}
	half := len(ints) / 2
	if err := eng.InsertBatch("root.g.int", ints[:half]); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertFloatBatch("root.g.float", floats[:half]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertBatch("root.g.int", ints[half:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertFloatBatch("root.g.float", floats[half:]); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, query, want string }{
		{
			name:  "int scan",
			query: "series=root.g.int",
			want: "-3,-9223372036854775808\n-2,-1\n0,0\n1,7\n2,-1234567890123456789\n" +
				"5,9223372036854775807\n11,42\n12,-42\n25,1000000000000000000\n",
		},
		{
			name:  "float scan",
			query: "series=root.g.float&from=-10&to=10",
			want: "-1,3.0\n0,-0.0\n1,-0.5\n2,5e-324\n3,1e-300\n4,6.02214076e+23\n" +
				"5,-1.7976931348623157e+308\n6,1e+21\n7,1.23456789e+08\n",
		},
		{
			name:  "window",
			query: "series=root.g.int&from=0&to=29&window=10",
			want: "0,4,-1234567890123456789,9223372036854775807,7988804146731319025,1.9972010366828298e+18\n" +
				"10,2,-42,42,0,0\n20,1,1000000000000000000,1000000000000000000,1000000000000000000,1e+18\n",
		},
		{
			name:  "filter",
			query: "series=root.g.int&vmin=-100&vmax=1000000000000000000",
			want:  "-2,-1\n0,0\n1,7\n11,42\n12,-42\n25,1000000000000000000\n",
		},
		{name: "empty int scan", query: "series=root.g.int&from=100&to=200"},
		{name: "empty float scan", query: "series=root.g.float&from=100&to=200"},
		{name: "empty window", query: "series=root.g.int&from=100&to=200&window=10"},
		{name: "empty filter", query: "series=root.g.int&from=100&to=200&vmin=0"},
	} {
		resp, err := http.Get(ts.URL + "/query?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
			t.Errorf("%s: %s, Content-Type %q: %s", tc.name, resp.Status, resp.Header.Get("Content-Type"), body)
			continue
		}
		if string(body) != tc.want {
			t.Errorf("%s: body\n%q\nwant\n%q", tc.name, body, tc.want)
		}
	}
}
