package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// failingScans is a Backend whose scans emit n points and then fail.
type failingScans struct {
	Backend
	n int
}

var errScan = errors.New("scan failed mid-way")

func (b failingScans) SeriesKind(string) (string, error) { return "int", nil }

func (b failingScans) scan(fn func(tsfile.Point) error) error {
	for i := 0; i < b.n; i++ {
		if err := fn(tsfile.Point{T: int64(i), V: int64(i)}); err != nil {
			return err
		}
	}
	return errScan
}

func (b failingScans) QueryEach(_ string, _, _ int64, fn func(tsfile.Point) error) error {
	return b.scan(fn)
}

func (b failingScans) QueryFilterEach(_ string, _, _, _, _ int64, fn func(tsfile.Point) error) error {
	return b.scan(fn)
}

// failingFloatScan is a Backend holding one float series whose scan fails.
type failingFloatScan struct{ Backend }

func (failingFloatScan) SeriesKind(string) (string, error) { return "float", nil }

func (failingFloatScan) QueryFloats(string, int64, int64) ([]tsfile.FloatPoint, error) {
	return nil, errScan
}

// TestQueryScanErrorReachesClient checks that a scan failing part-way never
// reads as a complete answer: before any row is out the server answers 500
// with the error, and after rows are out it aborts the response, so both
// client scans return an error.
func TestQueryScanErrorReachesClient(t *testing.T) {
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, n := range []int{0, 3, 5000} {
		srv, err := New(Options{Backend: failingScans{Backend: NewEngineBackend(eng), n: n}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		c := NewClient(ts.URL, ts.Client())
		scans := map[string]func(fn func(tsfile.Point) error) error{
			"QueryEach": func(fn func(tsfile.Point) error) error {
				return c.QueryEach("s", math.MinInt64, math.MaxInt64, fn)
			},
			"QueryFilterEach": func(fn func(tsfile.Point) error) error {
				return c.QueryFilterEach("s", math.MinInt64, math.MaxInt64, 0, math.MaxInt64, fn)
			},
		}
		for name, scan := range scans {
			got := 0
			err := scan(func(tsfile.Point) error { got++; return nil })
			what := fmt.Sprintf("n=%d %s (%d points)", n, name, got)
			if err == nil {
				t.Errorf("%s: no error", what)
				continue
			}
			var se *StatusError
			if got == 0 {
				// Nothing went out before the failure: a 500 carrying it.
				if !errors.As(err, &se) || se.Code != http.StatusInternalServerError || !strings.Contains(se.Message, errScan.Error()) {
					t.Errorf("%s: got %v, want a 500 carrying %q", what, err, errScan)
				}
			} else if errors.As(err, &se) {
				t.Errorf("%s: got status error %v, want an aborted body", what, err)
			}
		}
		ts.Close()
		srv.Close()
	}

	// A float scan returns all its points or an error before the first row
	// goes out, so its failure is always a 500, which carries no
	// X-Series-Kind.
	srv, err := New(Options{Backend: failingFloatScan{Backend: NewEngineBackend(eng)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, err = NewClient(ts.URL, ts.Client()).QueryFloats("s", math.MinInt64, math.MaxInt64)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError || !strings.Contains(se.Message, errScan.Error()) {
		t.Errorf("QueryFloats: got %v, want a 500 carrying %q", err, errScan)
	}
	resp, err := ts.Client().Get(ts.URL + "/query?series=s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("float scan: status %d, want 500", resp.StatusCode)
	}
	if k := resp.Header.Get("X-Series-Kind"); k != "" {
		t.Errorf("float scan: failed response carries X-Series-Kind %q", k)
	}
}

// TestQueryScanErrorAbortsStream checks the point stream's abort: a 5000-point
// failing scan fits in the first frame and still answers 500, so this scan
// fails after 20000 points, when frames have gone out. The server then
// aborts the response, the end frame never arrives, and the client returns
// an error that is not a StatusError after the points it read.
func TestQueryScanErrorAbortsStream(t *testing.T) {
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Options{Backend: failingScans{Backend: NewEngineBackend(eng), n: 20000}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	got := 0
	err = NewClient(ts.URL, ts.Client()).QueryEach("s", math.MinInt64, math.MaxInt64, func(tsfile.Point) error {
		got++
		return nil
	})
	var se *StatusError
	if err == nil || errors.As(err, &se) || got == 0 {
		t.Errorf("QueryEach read %d points, error %v; want points, then an aborted body", got, err)
	}
}
