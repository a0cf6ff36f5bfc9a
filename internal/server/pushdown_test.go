package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// TestWindowAndFilteredQuery drives the pushdown endpoints end to end over
// HTTP: /query?window= through Client.Window, /query?vmin=&vmax= through
// Client.QueryFilterEach, and the /stats pushdown tier counters.
func TestWindowAndFilteredQuery(t *testing.T) {
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := NewClient(ts.URL, ts.Client())

	pts := make([]tsfile.Point, 300)
	for i := range pts {
		pts[i] = tsfile.Point{T: int64(i), V: int64(i*3 - 100)}
	}
	if _, err := c.Ingest("root.pd.cnt", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestFloats("root.pd.temp", []tsfile.FloatPoint{{T: 1, V: 0.5}}); err != nil {
		t.Fatal(err)
	}
	// Persist to disk so the windowed query has chunks (and footer stats) to
	// push down into.
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []Bucket
	err = c.Window("root.pd.cnt", 0, 299, 100, func(b Bucket) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("window buckets = %+v, want 3", got)
	}
	for i, b := range got {
		lo := int64(i * 100)
		wantSum := int64(0)
		for ti := lo; ti < lo+100; ti++ {
			wantSum += ti*3 - 100
		}
		want := Bucket{Start: lo, Count: 100, Min: lo*3 - 100, Max: (lo+99)*3 - 100, Sum: wantSum}
		if b != want {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want)
		}
	}

	// The whole-range aggregate is a single fully-covered chunk: it must be
	// answered from footer statistics alone.
	agg, err := c.Agg("root.pd.cnt", 0, 299)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 300 || agg.Min != -100 || agg.Max != 299*3-100 {
		t.Fatalf("agg = %+v", agg)
	}

	var filtered []tsfile.Point
	err = c.QueryFilterEach("root.pd.cnt", 0, 299, 0, 200, func(p tsfile.Point) error {
		filtered = append(filtered, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []tsfile.Point
	for _, p := range pts {
		if p.V >= 0 && p.V <= 200 {
			want = append(want, p)
		}
	}
	if len(filtered) != len(want) {
		t.Fatalf("filtered %d points, want %d", len(filtered), len(want))
	}
	for i := range want {
		if filtered[i] != want[i] {
			t.Fatalf("filtered[%d] = %+v, want %+v", i, filtered[i], want[i])
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pushdown.Stats == 0 {
		t.Fatalf("no stats-tier hits in /stats pushdown block: %+v", st.Pushdown)
	}
	if st.Pushdown.Stats+st.Pushdown.Inlier+st.Pushdown.Full < 3 {
		t.Fatalf("pushdown counters did not move: %+v", st.Pushdown)
	}

	// Error shapes.
	for name, u := range map[string]string{
		"window without from": "/query?series=root.pd.cnt&window=100",
		"non-positive window": "/query?series=root.pd.cnt&from=0&to=10&window=0",
		"window on float":     "/query?series=root.pd.temp&from=0&to=10&window=5",
		"vmin on float":       "/query?series=root.pd.temp&from=0&to=10&vmin=1",
		"malformed vmax":      "/query?series=root.pd.cnt&from=0&to=10&vmax=abc",
	} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
	}
	if err := c.Window("no.such", 0, 10, 5, func(Bucket) error { return nil }); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("window on unknown series: %v", err)
	}
}

// TestIntReadsOfFloatSeries pins the answer of every read that folds or
// filters integer values on a float series: a 400, whether the points are
// buffered or flushed. The client's raw int scans of one fail with
// tsfile.ErrKindMismatch, buffered or flushed. An unknown series keeps
// /agg's and /downsample's empty answers.
func TestIntReadsOfFloatSeries(t *testing.T) {
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := NewClient(ts.URL, ts.Client())
	if _, err := c.IngestFloats("root.f", []tsfile.FloatPoint{{T: 1, V: 0.5}, {T: 2, V: 1.5}}); err != nil {
		t.Fatal(err)
	}
	for _, flushed := range []bool{false, true} {
		if flushed {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		_, aggErr := c.Agg("root.f", 0, 10)
		_, dsErr := c.Downsample("root.f", 0, 10, 5)
		for name, err := range map[string]error{"agg": aggErr, "downsample": dsErr} {
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
				t.Errorf("flushed=%v: %s of a float series: %v, want a 400", flushed, name, err)
			}
		}
		// Raw scans read as ints fail on the kind, not on a garbled value.
		_, queryErr := c.Query("root.f", 0, 10)
		eachErr := c.QueryEach("root.f", 0, 10, func(p tsfile.Point) error {
			return fmt.Errorf("QueryEach read %v", p)
		})
		for name, err := range map[string]error{"Query": queryErr, "QueryEach": eachErr} {
			if !errors.Is(err, tsfile.ErrKindMismatch) {
				t.Errorf("flushed=%v: %s of a float series: %v, want tsfile.ErrKindMismatch", flushed, name, err)
			}
		}
	}
	if agg, err := c.Agg("no.such", 0, 10); err != nil || agg.Count != 0 {
		t.Fatalf("agg of an unknown series = %+v, %v", agg, err)
	}
	if bs, err := c.Downsample("no.such", 0, 10, 5); err != nil || len(bs) != 0 {
		t.Fatalf("downsample of an unknown series = %+v, %v", bs, err)
	}
}

// TestWindowRetries proves Client.Window rides the retry layer: connection
// drops before the response replay the whole request.
func TestWindowRetries(t *testing.T) {
	fails := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		cw := newRowWriter(w, r, "int", kindWindow)
		defer cw.release()
		cw.writeBucket(Bucket{Start: 0, Count: 2, Min: 1, Max: 3, Sum: 4})
		cw.writeBucket(Bucket{Start: 10, Count: 1, Min: 5, Max: 5, Sum: 5})
		cw.end()
	}))
	defer ts.Close()
	c := NewClient(ts.URL, retryTestHTTPClient(), WithRetry(4, time.Millisecond))
	var got []Bucket
	err := c.Window("root.r", 0, 20, 10, func(b Bucket) error {
		got = append(got, b)
		return nil
	})
	if err != nil {
		t.Fatalf("window with retry: %v", err)
	}
	want := []Bucket{{Start: 0, Count: 2, Min: 1, Max: 3, Sum: 4}, {Start: 10, Count: 1, Min: 5, Max: 5, Sum: 5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
}
