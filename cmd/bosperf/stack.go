package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"time"

	"bos/internal/engine"
	"bos/internal/maintain"
	"bos/internal/server"
)

// stack is the system under test in one process: the engine behind the
// server's Backend, an unstarted maintainer behind POST /compact, and a
// loopback listener. When traced, bench-owned wrappers sit around the
// Backend and the handler; nothing inside the program is instrumented.
type stack struct {
	dir string
	eng *engine.Engine
	mnt *maintain.Maintainer
	api *server.Server
	ts  *httptest.Server
}

func openStack(dir string, opt engine.Options, tr *tracer) (*stack, error) {
	opt.Dir = dir
	eng, err := engine.Open(opt)
	if err != nil {
		return nil, err
	}
	mnt := maintain.New(eng, maintain.Config{})
	be := server.NewEngineBackend(eng)
	if tr != nil {
		be = tr.wrapBackend(be)
	}
	api, err := server.New(server.Options{Backend: be, Maintainer: mnt, PackerName: "BOS-B"})
	if err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	var h http.Handler = api.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	return &stack{dir: dir, eng: eng, mnt: mnt, api: api, ts: httptest.NewServer(h)}, nil
}

// close stops the listener, drains the ingest committer and closes the
// engine, in the order bosserver shuts down.
func (s *stack) close() error {
	s.ts.Close()
	err := s.api.Close()
	s.mnt.Stop()
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// newHTTPClient returns a client holding at most one connection, so each
// load goroutine owns exactly one.
func newHTTPClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	}
	return &http.Client{Transport: rt}
}
