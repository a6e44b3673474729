package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// opHeader tags a traced request so the server-side wrapper can hand
// its ServeHTTP span back to the client that sent it.
const opHeader = "X-Perfbench-Op"

// serveSpans times api.Server.ServeHTTP for tagged requests.
type serveSpans struct {
	mu      sync.Mutex
	waiting map[string]chan interval
}

func newServeSpans() *serveSpans {
	return &serveSpans{waiting: make(map[string]chan interval)}
}

// expect registers a tagged request before it is sent.
func (s *serveSpans) expect(op string) chan interval {
	ch := make(chan interval, 1)
	s.mu.Lock()
	s.waiting[op] = ch
	s.mu.Unlock()
	return ch
}

// forget drops a registration whose request never reached the server.
func (s *serveSpans) forget(op string) {
	s.mu.Lock()
	delete(s.waiting, op)
	s.mu.Unlock()
}

// wrap times the handler for tagged requests; others pass through.
func (s *serveSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := r.Header.Get(opHeader)
		if op == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		iv := interval{start, time.Now()}
		s.mu.Lock()
		ch := s.waiting[op]
		delete(s.waiting, op)
		s.mu.Unlock()
		if ch != nil {
			ch <- iv
		}
	})
}

// httpClient issues raw API requests over one keep-alive transport,
// without retries: every refusal or transport error is a result.
type httpClient struct {
	hc   *http.Client
	base string
}

func newHTTPClient(base string, conns int) *httpClient {
	return &httpClient{
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
		base: base,
	}
}

// do sends one request and reads the whole response. op, when not
// empty, tags the request for the traced run.
func (c *httpClient) do(method, path string, body []byte, op string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op != "" {
		req.Header.Set(opHeader, op)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }
