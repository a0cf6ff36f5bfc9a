package server

import (
	"net/http/httptest"
	"testing"

	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/tsfile"
)

// newMaintainedServer is newTestServer with a maintainer attached (scheduler
// not started: the endpoint drives it explicitly).
func newMaintainedServer(t *testing.T) (*Client, *engine.Engine, func()) {
	t.Helper()
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mnt := maintain.New(eng, maintain.Config{Adaptive: true})
	srv, err := New(Options{Backend: NewEngineBackend(eng), Maintainer: mnt, PackerName: "BOS-B"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cleanup := func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		mnt.Stop()
		if err := eng.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}
	return NewClient(ts.URL, ts.Client()), eng, cleanup
}

func TestCompactEndpoint(t *testing.T) {
	c, eng, cleanup := newMaintainedServer(t)
	defer cleanup()

	for i := 0; i < 4; i++ {
		pts := make([]tsfile.Point, 300)
		for j := range pts {
			pts[j] = tsfile.Point{T: int64(i*1000 + j), V: int64(j % 50)}
		}
		if err := eng.InsertBatch("s", pts); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Policy mode merges the tier of similar-sized files.
	resp, err := c.Compact("policy")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Ran || resp.Files != 4 || resp.Points != 1200 {
		t.Fatalf("policy compact: %+v", resp)
	}
	if len(resp.SeriesPackers) == 0 {
		t.Fatalf("adaptive choices missing from response: %+v", resp)
	}
	// Nothing left: policy finds no run, reports ran=false without error.
	resp, err = c.Compact("policy")
	if err != nil || resp.Ran {
		t.Fatalf("idle policy compact: %+v err %v", resp, err)
	}

	// Maintenance counters surface in /stats.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 || st.Compactions != 1 || st.CompactedFiles != 4 {
		t.Fatalf("stats after compact: files=%d compactions=%d compacted=%d",
			st.Files, st.Compactions, st.CompactedFiles)
	}
	if st.Maintenance == nil || st.Maintenance.Compactions != 1 ||
		len(st.Maintenance.SeriesPackers) == 0 {
		t.Fatalf("maintenance stats: %+v", st.Maintenance)
	}
	if st.CompactedBytesIn <= 0 || st.CompactedBytesOut <= 0 {
		t.Fatalf("byte counters: %+v", st)
	}

	// Full mode works with new data and keeps serving correct results.
	if err := eng.Insert("s", 50_000, 7); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact("full"); err != nil {
		t.Fatal(err)
	}
	pts, err := c.Query("s", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1201 {
		t.Fatalf("points after compactions: %d want 1201", len(pts))
	}

	if _, err := c.Compact("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestCompactEndpointWithoutMaintainer(t *testing.T) {
	c, _, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	if _, err := c.Compact("policy"); err == nil {
		t.Fatal("policy mode without maintainer accepted")
	}
	// Default (and full) mode fall back to a plain engine compaction.
	resp, err := c.Compact("")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ran {
		t.Fatalf("empty engine reported a compaction: %+v", resp)
	}
}
