package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the timeouts every bosserver listener carries:
// a client that stalls its headers is cut off, and an idle connection
// outlives the 90 s idle timeout of the RemoteShard client pool.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
}
