package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"bos/internal/tsfile"
)

// Handler tests for clients that stop sending partway through a request:
// one half-closes its connection before the body it declared is complete,
// the other stalls with its body open while another client carries on.

// dialServer opens a raw connection to the server behind c, for requests
// written by hand. The test must close it before the server's cleanup runs,
// which waits for every active request.
func dialServer(t *testing.T, c *Client) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(c.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHalfClosedIngestCommitsNothing sends one complete line of a body that
// declares 100 bytes, then shuts its write side. The server must answer 400
// and commit nothing: a body cut short is not a smaller batch.
func TestHalfClosedIngestCommitsNothing(t *testing.T) {
	c, _, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	conn := dialServer(t, c)
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: bos\r\nContent-Type: text/plain\r\n"+
		"Content-Length: 100\r\n\r\nroot.half.x,1,1\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestPoints != 0 {
		t.Fatalf("ingest_points = %d after a half-closed ingest, want 0", st.IngestPoints)
	}
	series, err := c.Series()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 0 {
		t.Fatalf("series after a half-closed ingest: %v", series)
	}
}

// TestStalledBodyDoesNotBlockOthers holds an ingest request open partway
// through its body for the whole test. Another client's ingest and its
// read-back must complete meanwhile, and only that client's points count.
func TestStalledBodyDoesNotBlockOthers(t *testing.T) {
	entered := make(chan struct{}, 1)
	c, _, cleanup := newTestServer(t, t.TempDir(), func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Stall") != "" {
				entered <- struct{}{}
			}
			h.ServeHTTP(w, r)
		})
	})
	defer cleanup()
	conn := dialServer(t, c)
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: bos\r\nX-Stall: 1\r\n"+
		"Content-Length: 1000\r\n\r\nroot.stall.x,1,"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled request never reached the handler")
	}

	pts := make([]tsfile.Point, 500)
	for i := range pts {
		pts[i] = tsfile.Point{T: int64(i), V: int64(i % 7)}
	}
	done := make(chan error, 1)
	go func() {
		if _, err := c.Ingest("root.live.x", pts); err != nil {
			done <- fmt.Errorf("ingest: %w", err)
			return
		}
		got, err := c.Query("root.live.x", 0, int64(len(pts)))
		if err == nil && len(got) != len(pts) {
			err = fmt.Errorf("read back %d points, want %d", len(got), len(pts))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest and query waited behind a stalled client")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestPoints != int64(len(pts)) {
		t.Fatalf("ingest_points = %d, want %d", st.IngestPoints, len(pts))
	}
}

// TestStalledBodyTimesOut shortens the body idle limit. An ingest body that
// stops arriving must get a 408 and commit nothing, while a body that
// trickles in, each gap well inside the limit but the whole body longer than
// it, must be accepted in full.
func TestStalledBodyTimesOut(t *testing.T) {
	defer func(idle time.Duration) { ingestBodyIdle = idle }(ingestBodyIdle)
	ingestBodyIdle = 500 * time.Millisecond
	c, _, cleanup := newTestServer(t, t.TempDir())
	defer cleanup()
	// post writes the request head and then each part of its body,
	// sleeping gap before every part after the first, and returns the
	// response status.
	post := func(declared int, gap time.Duration, parts ...string) int {
		t.Helper()
		conn := dialServer(t, c)
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := fmt.Fprintf(conn, "POST /ingest HTTP/1.1\r\nHost: bos\r\nContent-Type: text/plain\r\n"+
			"Content-Length: %d\r\n\r\n", declared); err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			if i > 0 {
				time.Sleep(gap)
			}
			if _, err := conn.Write([]byte(part)); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("reading the response: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	start := time.Now()
	if code := post(1000, 0, "root.stall.x,1,"); code != http.StatusRequestTimeout {
		t.Fatalf("stalled body: status %d, want 408", code)
	}
	if waited := time.Since(start); waited < ingestBodyIdle {
		t.Fatalf("stalled body cut after %v, before the %v limit", waited, ingestBodyIdle)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestPoints != 0 {
		t.Fatalf("ingest_points = %d after a stalled body, want 0", st.IngestPoints)
	}

	var parts []string
	n := 0
	for i := 0; i < 10; i++ {
		line := fmt.Sprintf("root.trickle.x,%d,%d\n", i, i*i)
		parts = append(parts, line)
		n += len(line)
	}
	gap := ingestBodyIdle / 5
	start = time.Now()
	if code := post(n, gap, parts...); code != http.StatusOK {
		t.Fatalf("trickled body: status %d, want 200", code)
	}
	if took := time.Since(start); took <= ingestBodyIdle {
		t.Fatalf("trickled body took %v, not longer than the %v limit", took, ingestBodyIdle)
	}
	got, err := c.Query("root.trickle.x", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("read back %d trickled points, want %d", len(got), len(parts))
	}
	series, err := c.Series()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0] != "root.trickle.x" {
		t.Fatalf("series after a stalled and a trickled ingest: %v", series)
	}
}
