package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// newTestServer opens an engine over dir and mounts a Server on httptest,
// inside the given wrappers if any.
func newTestServer(t *testing.T, dir string, wrap ...func(http.Handler) http.Handler) (*Client, *Server, func()) {
	t.Helper()
	eng, err := engine.Open(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Backend: NewEngineBackend(eng), PackerName: "BOS-B"})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, w := range wrap {
		h = w(h)
	}
	ts := httptest.NewServer(h)
	cleanup := func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := eng.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}
	return NewClient(ts.URL, ts.Client()), srv, cleanup
}

func TestServerEndToEnd(t *testing.T) {
	c, _, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	ints := make([]tsfile.Point, 100)
	for i := range ints {
		ints[i] = tsfile.Point{T: int64(i), V: int64(i * i)}
	}
	ack, err := c.Ingest("root.d1.temp", ints)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Points != 100 || ack.Series != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	floats := []tsfile.FloatPoint{{T: 1, V: 2.5}, {T: 2, V: 3}, {T: 3, V: -0.125}}
	if _, err := c.IngestFloats("root.d1.hum", floats); err != nil {
		t.Fatal(err)
	}

	got, err := c.Query("root.d1.temp", 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != (tsfile.Point{T: 10, V: 100}) || got[9] != (tsfile.Point{T: 19, V: 361}) {
		t.Fatalf("query: %+v", got)
	}
	gotF, err := c.QueryFloats("root.d1.hum", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotF) != 3 || gotF[0].V != 2.5 || gotF[1].V != 3 || gotF[2].V != -0.125 {
		t.Fatalf("float query: %+v", gotF)
	}

	agg, err := c.Agg("root.d1.temp", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 10 || agg.Min != 0 || agg.Max != 81 || agg.Sum != 285 {
		t.Fatalf("agg: %+v", agg)
	}

	buckets, err := c.Downsample("root.d1.temp", 0, 99, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 || buckets[0].Start != 0 || buckets[1].Start != 50 || buckets[0].Count != 50 {
		t.Fatalf("downsample: %+v", buckets)
	}

	names, err := c.Series()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "root.d1.hum" || names[1] != "root.d1.temp" {
		t.Fatalf("series: %v", names)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Packer != "BOS-B" || st.IngestPoints != 103 || st.SeriesCount != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Series) != 2 || st.Series[1].Kind != "int" || st.Series[0].Kind != "float" {
		t.Fatalf("per-series stats: %+v", st.Series)
	}
	if st.Cache.MaxBytes <= 0 {
		t.Fatalf("decoded-chunk cache counters missing from /stats: %+v", st.Cache)
	}
}

func TestServerErrors(t *testing.T) {
	c, _, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()

	if _, err := c.IngestLines([]byte("bad line\n")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("malformed ingest: %v", err)
	}
	if _, err := c.Query("no.such", 0, 10); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown series: %v", err)
	}
	if _, err := c.Downsample("s", 0, 10, 0); err == nil {
		t.Fatal("zero window: want error")
	}
	// Kind conflict across batches: ints first, floats second.
	if _, err := c.IngestLines([]byte("k,1,1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestLines([]byte("k,2,2.5\n")); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("kind conflict: %v", err)
	}
	// Body size cap.
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	small, err := New(Options{Backend: NewEngineBackend(eng), MaxBodyBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	ts := httptest.NewServer(small.Handler())
	defer ts.Close()
	sc := NewClient(ts.URL, ts.Client())
	if _, err := sc.IngestLines([]byte("series,100,100000\nseries,200,2\n")); err == nil ||
		!strings.Contains(err.Error(), "413") {
		t.Fatalf("oversized body: %v", err)
	}
}

// TestShutdownKeepsAcknowledgedWrites is the restart-and-count test: every
// write acknowledged before a graceful shutdown must be present after
// reopening the data directory.
func TestShutdownKeepsAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	eng, err := engine.Open(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Backend: NewEngineBackend(eng)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL, ts.Client())

	const total = 5000
	pts := make([]tsfile.Point, total)
	for i := range pts {
		pts[i] = tsfile.Point{T: int64(i), V: int64(i) * 3}
	}
	for off := 0; off < total; off += 500 {
		if _, err := c.Ingest("root.count", pts[off:off+500]); err != nil {
			t.Fatal(err)
		}
	}
	// Graceful shutdown: stop accepting, drain the committer, flush, close.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and count through a fresh server.
	c2, _, cleanup := newTestServer(t, dir)
	defer cleanup()
	agg, err := c2.Agg("root.count", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != total {
		t.Fatalf("after restart: %d points, want %d", agg.Count, total)
	}
	// Ingest after shutdown is refused, not hung.
	if _, err := c.Ingest("root.count", pts[:1]); err == nil {
		t.Fatal("ingest after shutdown: want error")
	}
}

func TestIngestAfterServerCloseReturns503(t *testing.T) {
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ts.URL, ts.Client())
	_, err = c.IngestLines([]byte("s,1,2\n"))
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 after close, got %v", err)
	}
	// Reads still work on a closed server (engine is still open).
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}
