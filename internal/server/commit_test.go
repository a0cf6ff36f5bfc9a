package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bos/internal/engine"
	"bos/internal/tsfile"
)

// Each ingest request commits on its own handler goroutine. These tests
// hold one request's commit inside the backend and check what the others
// see meanwhile: they are not held behind it, an error answers only the
// request that caused it, and Close waits for the held commit before it
// flushes.

// holdingBackend is an engine Backend whose commits that touch the series
// "slow" wait in InsertGrouped until release is closed. It logs each
// finished commit of "slow" and each Flush, in order.
type holdingBackend struct {
	Backend
	entered chan struct{} // receives once as each held commit starts
	release chan struct{}
	once    sync.Once

	mu     sync.Mutex
	events []string
}

func (b *holdingBackend) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	_, slowInt := ints["slow"]
	_, slowFloat := floats["slow"]
	if !slowInt && !slowFloat {
		return b.Backend.InsertGrouped(ints, floats)
	}
	b.entered <- struct{}{}
	<-b.release
	err := b.Backend.InsertGrouped(ints, floats)
	b.log("commit slow")
	return err
}

func (b *holdingBackend) Flush() error {
	b.log("flush")
	return b.Backend.Flush()
}

func (b *holdingBackend) log(event string) {
	b.mu.Lock()
	b.events = append(b.events, event)
	b.mu.Unlock()
}

func (b *holdingBackend) logged() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.events...)
}

// unblock lets every held commit, present and future, go on.
func (b *holdingBackend) unblock() { b.once.Do(func() { close(b.release) }) }

// newHoldingServer mounts a Server over a holdingBackend on httptest. The
// cleanup unblocks held commits before it stops the listener, which waits
// for every active request.
func newHoldingServer(t *testing.T) (*Client, *Server, *holdingBackend, func()) {
	t.Helper()
	eng, err := engine.Open(engine.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	be := &holdingBackend{
		Backend: NewEngineBackend(eng),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv, err := New(Options{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	cleanup := func() {
		be.unblock()
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := eng.Close(); err != nil {
			t.Errorf("engine close: %v", err)
		}
	}
	return NewClient(ts.URL, ts.Client()), srv, be, cleanup
}

// ingestStatus posts a line-protocol body and returns the status it was
// answered with, or 0 when no response arrived.
func ingestStatus(c *Client, body string) int {
	_, err := c.IngestLines([]byte(body))
	var se *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Code
	}
	return 0
}

// postAsync posts body on its own goroutine and returns a channel that
// receives the answer's status.
func postAsync(c *Client, body string) <-chan int {
	ch := make(chan int, 1)
	go func() { ch <- ingestStatus(c, body) }()
	return ch
}

// holdSlow posts a request for the series "slow" and waits until its
// commit is held in the backend.
func holdSlow(t *testing.T, c *Client, be *holdingBackend) <-chan int {
	t.Helper()
	slow := postAsync(c, "slow,1,1\n")
	select {
	case <-be.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the slow request never reached the backend")
	}
	return slow
}

// wantStatus waits for an answer and checks its status.
func wantStatus(t *testing.T, what string, ch <-chan int, want int) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer", what)
	}
}

// TestIngestNotHeldBehindSlowCommit holds the commit of one request. A
// request for another series must be acknowledged while it is held.
func TestIngestNotHeldBehindSlowCommit(t *testing.T) {
	c, _, be, cleanup := newHoldingServer(t)
	defer cleanup()
	slow := holdSlow(t, c, be)

	other := postAsync(c, "a,1,1\n")
	select {
	case got := <-other:
		if got != http.StatusOK {
			t.Fatalf("request beside a held commit: status %d, want 200", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a request for another series waited behind a held commit")
	}
	be.unblock()
	wantStatus(t, "the held request", slow, http.StatusOK)
}

// TestIngestErrorStaysWithItsRequest sends, while one commit is held, a
// valid request and a request that conflicts with a series' kind. Each must
// get its own answer: 200 for the valid one, 409 for the conflict, and
// only the valid one's point is stored.
func TestIngestErrorStaysWithItsRequest(t *testing.T) {
	c, _, be, cleanup := newHoldingServer(t)
	defer cleanup()
	if _, err := c.IngestLines([]byte("f,1,1.5\n")); err != nil {
		t.Fatal(err)
	}
	slow := holdSlow(t, c, be)

	valid := postAsync(c, "a,1,1\n")
	conflict := postAsync(c, "f,2,2\n")
	// Give both requests time to reach their commits while the slow one is
	// held, so a server that batched requests would commit them together
	// behind it. The answers checked below do not depend on this wait.
	time.Sleep(300 * time.Millisecond)
	be.unblock()
	wantStatus(t, "the valid request", valid, http.StatusOK)
	wantStatus(t, "the kind conflict", conflict, http.StatusConflict)
	wantStatus(t, "the held request", slow, http.StatusOK)

	got, err := c.Query("a", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (tsfile.Point{T: 1, V: 1}) {
		t.Fatalf("series a holds %+v, want the one valid point", got)
	}
	f, err := c.QueryFloats("f", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 || f[0] != (tsfile.FloatPoint{T: 1, V: 1.5}) {
		t.Fatalf("series f holds %+v, want only its float point", f)
	}
}

// TestCloseWaitsForCommits holds a commit while Close runs. Close must not
// return, nor flush, until the held commit has returned; after Close an
// ingest gets 503.
func TestCloseWaitsForCommits(t *testing.T) {
	c, srv, be, cleanup := newHoldingServer(t)
	defer cleanup()
	slow := holdSlow(t, c, be)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a commit was held", err)
	case <-time.After(300 * time.Millisecond):
	}
	if ev := be.logged(); len(ev) != 0 {
		t.Fatalf("while a commit was held: %v", ev)
	}
	be.unblock()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the held commit did")
	}
	if ev := be.logged(); len(ev) != 2 || ev[0] != "commit slow" || ev[1] != "flush" {
		t.Fatalf("events %v, want the held commit, then the flush", ev)
	}
	wantStatus(t, "the held request", slow, http.StatusOK)
	if got := ingestStatus(c, "b,1,1\n"); got != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", got)
	}
}
