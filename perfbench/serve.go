package main

// In-process request plumbing: requests go straight into the daemon's
// Handler().ServeHTTP, with no sockets, so the benchmark times the
// served path (JSON decode, admission, the System call, serialization)
// and nothing of the network stack.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// respWriter is a minimal reusable http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

// client issues requests from one generator goroutine.
type client struct {
	h http.Handler
	w respWriter
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{h: http.Header{}}}
}

// prepare builds a POST request; building it is client work, outside
// the timed ServeHTTP call.
func prepare(path string, body []byte) *http.Request {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // path is a constant
	}
	return req
}

// serve runs one request through ServeHTTP and returns its status, the
// response body (valid until the next call) and the ServeHTTP wall time.
func (c *client) serve(req *http.Request) (int, []byte, time.Duration) {
	clear(c.w.h)
	c.w.status = 0
	c.w.body.Reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.w, req)
	return c.w.status, c.w.body.Bytes(), time.Since(t0)
}

// do prepares and serves one POST.
func (c *client) do(path string, body []byte) (int, []byte, time.Duration) {
	return c.serve(prepare(path, body))
}

// queryResp is the part of a /v1/query response the benchmark reads.
type queryResp struct {
	PlanCacheHit bool     `json:"plan_cache_hit"`
	Answers      []string `json:"answers"`
}

// updateResp is the part of a /v1/update response the benchmark reads.
type updateResp struct {
	Code string `json:"code"`
}

func queryBody(src string) []byte {
	b, err := json.Marshal(struct {
		Query string `json:"query"`
	}{src})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// update serves w's next write and records the outcome; a failed write
// is returned as an error since it leaves the writer out of step.
func (c *client) update(w *writer) (time.Duration, error) {
	op := w.next()
	status, resp, d := c.do("/v1/update", op.body())
	if !ok2xx(status) {
		return d, fmt.Errorf("update %s: status %d: %s", op.body(), status, resp)
	}
	var ur updateResp
	if err := json.Unmarshal(resp, &ur); err != nil {
		return d, fmt.Errorf("update response: %w", err)
	}
	w.applied(ur.Code)
	return d, nil
}
