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
