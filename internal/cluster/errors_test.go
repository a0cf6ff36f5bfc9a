package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bos/internal/engine"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// stubShard is a scripted in-memory shard for failure-injection tests.
type stubShard struct {
	id        int
	pts       []tsfile.Point
	failAfter int // emit this many points, then fail with queryErr (-1 = never)
	queryErr  error
	floatErr  error // QueryFloats fails with it when set
	healthErr error
}

func newStubShard(id int, pts []tsfile.Point) *stubShard {
	return &stubShard{id: id, pts: pts, failAfter: -1}
}

func (s *stubShard) Target() string { return fmt.Sprintf("stub-%d", s.id) }

func (s *stubShard) InsertGrouped(map[string][]tsfile.Point, map[string][]tsfile.FloatPoint) error {
	return nil
}

func (s *stubShard) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	emitted := 0
	for _, p := range s.pts {
		if s.failAfter >= 0 && emitted == s.failAfter {
			return s.queryErr
		}
		if p.T < minT || p.T > maxT {
			continue
		}
		if err := fn(p); err != nil {
			return err
		}
		emitted++
	}
	if s.failAfter >= 0 {
		return s.queryErr
	}
	return nil
}

func (s *stubShard) QueryFloats(string, int64, int64) ([]tsfile.FloatPoint, error) {
	return nil, s.floatErr
}

func (s *stubShard) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	return s.QueryEach(series, minT, maxT, func(p tsfile.Point) error {
		if p.V < minV || p.V > maxV {
			return nil
		}
		return fn(p)
	})
}

func (s *stubShard) Downsample(string, int64, int64, int64) ([]engine.Bucket, error) {
	return nil, nil
}

func (s *stubShard) Aggregate(series string, minT, maxT int64) (engine.Bucket, error) {
	b := engine.Bucket{Start: minT}
	err := s.QueryEach(series, minT, maxT, func(p tsfile.Point) error {
		if b.Count == 0 || p.V < b.Min {
			b.Min = p.V
		}
		if b.Count == 0 || p.V > b.Max {
			b.Max = p.V
		}
		b.Count++
		b.Sum += p.V
		return nil
	})
	return b, err
}

func (s *stubShard) Series() ([]string, error)                 { return []string{"root.stub"}, nil }
func (s *stubShard) SeriesKind(string) (string, error)         { return "int", nil }
func (s *stubShard) SeriesStats() ([]engine.SeriesStat, error) { return nil, nil }
func (s *stubShard) Stats() (engine.Stats, error)              { return engine.Stats{}, nil }
func (s *stubShard) CompactAll() (engine.CompactStats, error)  { return engine.CompactStats{}, nil }
func (s *stubShard) Flush() error                              { return nil }
func (s *stubShard) Health() error                             { return s.healthErr }
func (s *stubShard) Close() error                              { return nil }

func stubRouter(t *testing.T, shards ...Shard) *Router {
	t.Helper()
	r, err := New(DefaultManifest(len(shards)), shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func seqPoints(n int) []tsfile.Point {
	pts := make([]tsfile.Point, n)
	for i := range pts {
		pts[i] = tsfile.Point{T: int64(i), V: int64(i)}
	}
	return pts
}

// A shard failing a float scan fails the scatter-gather scan with its error.
func TestQueryFloatsShardErrorPropagates(t *testing.T) {
	boom := errors.New("shard exploded")
	bad := newStubShard(1, nil)
	bad.floatErr = boom
	r := stubRouter(t, newStubShard(0, nil), bad)

	if _, err := r.QueryFloats("root.stub", 0, 100); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard's error", err)
	}
}

// A shard failing mid-stream aborts the scatter-gather scan with its error.
func TestQueryEachShardErrorPropagates(t *testing.T) {
	boom := errors.New("shard exploded")
	bad := newStubShard(1, seqPoints(10))
	bad.failAfter, bad.queryErr = 3, boom
	r := stubRouter(t, newStubShard(0, seqPoints(10)), bad)

	err := r.QueryEach("root.stub", 0, 100, func(tsfile.Point) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the shard's error", err)
	}
}

// A consumer error aborts the scan — and the shard producer goroutines —
// without being swallowed or replaced.
func TestQueryEachConsumerErrorAborts(t *testing.T) {
	stop := errors.New("enough")
	r := stubRouter(t, newStubShard(0, seqPoints(10)), newStubShard(1, seqPoints(10)))
	seen := 0
	err := r.QueryEach("root.stub", 0, 100, func(tsfile.Point) error {
		if seen++; seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
	if seen != 2 {
		t.Fatalf("consumer saw %d points after aborting at 2", seen)
	}
}

// Through the HTTP layer, a mid-query shard failure turns /agg into a 500
// carrying the shard error, not a silently partial aggregate.
func TestAggShardErrorIs500(t *testing.T) {
	boom := errors.New("disk on fire")
	bad := newStubShard(1, seqPoints(10))
	bad.failAfter, bad.queryErr = 2, boom
	r := stubRouter(t, newStubShard(0, seqPoints(10)), bad)
	c, done := mount(t, r)
	defer done()

	_, err := c.Agg("root.stub", 0, 100)
	var se *server.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 StatusError", err)
	}
	if !strings.Contains(se.Message, "disk on fire") {
		t.Fatalf("error message %q lost the shard error", se.Message)
	}
}

// /healthz in cluster mode: all shards healthy answers 200 "ok" with the
// per-shard block; any unhealthy shard turns it 503 "degraded" with the
// failing shard's detail.
func TestHealthzAggregatesShardHealth(t *testing.T) {
	ok0, ok1 := newStubShard(0, nil), newStubShard(1, nil)
	r := stubRouter(t, ok0, ok1)
	api, err := server.New(server.Options{Backend: r})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	defer func() {
		ts.Close()
		if err := api.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()
	if err := server.NewClient(ts.URL, ts.Client()).Health(); err != nil {
		t.Fatalf("healthy cluster reports: %v", err)
	}

	ok1.healthErr = errors.New("connection refused")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var hr server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || len(hr.Shards) != 2 {
		t.Fatalf("health = %+v", hr)
	}
	if hr.Shards[0].Healthy != true || hr.Shards[1].Healthy != false {
		t.Fatalf("per-shard health wrong: %+v", hr.Shards)
	}
	if !strings.Contains(hr.Shards[1].Error, "connection refused") {
		t.Fatalf("shard 1 error %q lost the cause", hr.Shards[1].Error)
	}
	// A degraded cluster fails the typed client's health check too.
	if err := server.NewClient(ts.URL, ts.Client()).Health(); err == nil {
		t.Fatal("client.Health passed on a degraded cluster")
	}
}
