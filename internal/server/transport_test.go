package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/server"
)

// contractProgram is one level and 200 facts: enough for a query under a
// 20-step budget to stop with some of its answers found.
func contractProgram() string {
	var b strings.Builder
	b.WriteString("level(u).\n")
	for i := range 200 {
		fmt.Fprintf(&b, "u[emp(k%d: salary -u-> v%d)].\n", i, i)
	}
	return b.String()
}

// contractFixture is one handler under the transport contract, in front of
// (or as) the node srv.
type contractFixture struct {
	srv   *server.Server
	h     http.Handler
	drain func() // runs h's Serve under a canceled context: h is draining after
}

// serve answers one request to h with a recorder.
func (f *contractFixture) serve(method, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec
}

// post answers in, encoded, at path.
func (f *contractFixture) post(t *testing.T, path string, in any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return f.serve(http.MethodPost, path, bytes.NewReader(body))
}

// open opens a session at u through h.
func (f *contractFixture) open(t *testing.T) string {
	t.Helper()
	rec := f.post(t, "/v1/session", server.OpenRequest{Subject: "contract", Clearance: "u"})
	var resp server.OpenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("open: %d %s %v", rec.Code, rec.Body, err)
	}
	return resp.Session
}

// errorReply decodes an error body.
func errorReply(t *testing.T, rec *httptest.ResponseRecorder) server.ErrorResponse {
	t.Helper()
	var e server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("undecodable error body %q: %v", rec.Body, err)
	}
	return e
}

// drainWith runs serve under a canceled context on a fresh listener: the
// whole drain, after which the handler it served refuses new work.
func drainWith(t *testing.T, serve func(context.Context, net.Listener, time.Duration) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := serve(ctx, ln, time.Second); err != nil {
		t.Fatal(err)
	}
}

// panicBody is a request body whose every Read panics: whichever handler
// decodes it panics inside its own code.
type panicBody struct{}

func (panicBody) Read([]byte) (int, error) { panic("boom") }

// brokenPipe is a ResponseWriter whose client has gone: every Write fails.
// It counts the statuses written.
type brokenPipe struct {
	header  http.Header
	headers int
}

func (w *brokenPipe) Header() http.Header       { return w.header }
func (w *brokenPipe) WriteHeader(int)           { w.headers++ }
func (w *brokenPipe) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestTransportContract holds a node's handler and a router's in front of
// that node to one transport: the same answers to a panic, an unknown field,
// an oversized body, a drain and a reply that fails mid-body, and the same
// partial answers on a 408 (each handler counting it as truncated),
// readiness while draining and X-Multilog-Stale on a brownout answer.
func TestTransportContract(t *testing.T) {
	targets := []struct {
		name  string
		build func(t *testing.T, srv *server.Server) *contractFixture
	}{
		{"node", func(t *testing.T, srv *server.Server) *contractFixture {
			return &contractFixture{srv: srv, h: srv.Handler(), drain: func() { drainWith(t, srv.Serve) }}
		}},
		{"router", func(t *testing.T, srv *server.Server) *contractFixture {
			backend := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { backend.CloseClientConnections(); backend.Close() })
			rt, err := replica.NewRouter(replica.RouterConfig{Primary: backend.URL})
			if err != nil {
				t.Fatal(err)
			}
			return &contractFixture{srv: srv, h: rt.Handler(), drain: func() { drainWith(t, rt.Serve) }}
		}},
	}
	// hold parks the node's admitted queries at its query-work fault point
	// while set; only the stale-header case sets it.
	type stall struct {
		hold    atomic.Bool
		parked  chan struct{}
		release chan struct{}
	}
	cases := []struct {
		name string
		cfg  func(*stall) server.Config
		run  func(t *testing.T, f *contractFixture, st *stall)
	}{
		{name: "panic", run: func(t *testing.T, f *contractFixture, _ *stall) {
			rec := f.serve(http.MethodPost, "/v1/query", panicBody{})
			if e := errorReply(t, rec); rec.Code != http.StatusInternalServerError || e.Code != server.CodeInternal {
				t.Fatalf("a panicking handler answered %d %q, want 500 %q", rec.Code, e.Code, server.CodeInternal)
			}
		}},
		{name: "unknown-field", run: func(t *testing.T, f *contractFixture, _ *stall) {
			rec := f.serve(http.MethodPost, "/v1/session", strings.NewReader(`{"subject":"w","clearance":"u","clearence":"s"}`))
			if e := errorReply(t, rec); rec.Code != http.StatusBadRequest || e.Code != server.CodeBadRequest {
				t.Fatalf("an unknown field answered %d %q, want 400 %q", rec.Code, e.Code, server.CodeBadRequest)
			}
		}},
		{name: "oversized-body", run: func(t *testing.T, f *contractFixture, _ *stall) {
			body := `{"session":"` + strings.Repeat("a", 1<<20) + `","query":"level(L)"}`
			rec := f.serve(http.MethodPost, "/v1/query", strings.NewReader(body))
			if e := errorReply(t, rec); rec.Code != http.StatusBadRequest || e.Code != server.CodeBadRequest {
				t.Fatalf("a body over 1 MiB answered %d %q, want 400 %q", rec.Code, e.Code, server.CodeBadRequest)
			}
		}},
		{name: "draining", run: func(t *testing.T, f *contractFixture, _ *stall) {
			sess := f.open(t)
			f.drain()
			for _, path := range []string{"/v1/query", "/v1/session"} {
				rec := f.post(t, path, server.QueryRequest{Session: sess, Query: "level(L)"})
				if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
					t.Fatalf("%s while draining answered %d, Retry-After %q; want 503, 1", path, rec.Code, rec.Header().Get("Retry-After"))
				}
			}
		}},
		{name: "abandoned-reply", run: func(t *testing.T, f *contractFixture, _ *stall) {
			sess := f.open(t)
			req, err := json.Marshal(server.QueryRequest{Session: sess, Query: "u[emp(K: salary -u-> V)]"})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				w := &brokenPipe{header: http.Header{}}
				f.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
				if w.headers != 1 {
					t.Fatalf("reply %d failed mid-body and wrote %d statuses, want 1", i, w.headers)
				}
				rec := f.serve(http.MethodGet, "/v1/stats", nil)
				var st server.StatsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Queries.Abandoned != int64(i) {
					t.Fatalf("after %d abandoned replies, stats count %d (%v)", i, st.Queries.Abandoned, err)
				}
			}
		}},
		{name: "partial-answers", run: func(t *testing.T, f *contractFixture, _ *stall) {
			query := "u[emp(K: salary -C-> V)]"
			// truncated reads the handler's own count of 408s.
			truncated := func() int64 {
				var st server.StatsResponse
				if err := json.Unmarshal(f.serve(http.MethodGet, "/v1/stats", nil).Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				return st.Queries.Truncated
			}
			// The reference: the node itself, on a session of its own.
			node := &contractFixture{h: f.srv.Handler()}
			want := node.post(t, "/v1/query", server.QueryRequest{Session: node.open(t), Query: query, MaxSteps: 20})
			before := truncated()
			got := f.post(t, "/v1/query", server.QueryRequest{Session: f.open(t), Query: query, MaxSteps: 20})
			if n := truncated() - before; n != 1 {
				t.Fatalf("a 408 with partial answers moved queries.truncated by %d, want 1", n)
			}
			if want.Code != http.StatusRequestTimeout || len(answersOf(t, want.Body.Bytes())) < 3 {
				t.Fatalf("the node answered a 20-step query %d %s, want 408 with partial answers", want.Code, want.Body)
			}
			if got.Code != http.StatusRequestTimeout || !bytes.Equal(answersOf(t, got.Body.Bytes()), answersOf(t, want.Body.Bytes())) {
				t.Fatalf("a 20-step query answered %d with answers\n%s\nwant 408 with the node's\n%s",
					got.Code, answersOf(t, got.Body.Bytes()), answersOf(t, want.Body.Bytes()))
			}
		}},
		{name: "readyz-draining", run: func(t *testing.T, f *contractFixture, _ *stall) {
			if rec := f.serve(http.MethodGet, "/v1/readyz", nil); rec.Code != http.StatusOK {
				t.Fatalf("readyz before the drain answered %d %s", rec.Code, rec.Body)
			}
			f.drain()
			rec := f.serve(http.MethodGet, "/v1/readyz", nil)
			var h server.HealthResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusServiceUnavailable || h.Status != "draining" {
				t.Fatalf("readyz while draining answered %d %s, want 503 draining", rec.Code, rec.Body)
			}
		}},
		{name: "stale-header", cfg: func(st *stall) server.Config {
			return server.Config{
				QueryTimeout: time.Minute,
				MaxInflight:  4, // exactly one cost-4 read at a time
				MaxStale:     time.Minute,
				StreamFaults: func(ev faultinject.FileEvent, _ int64) faultinject.FileAction {
					if ev == faultinject.ServerQueryWork && st.hold.Load() {
						select {
						case st.parked <- struct{}{}:
						default:
						}
						<-st.release
					}
					return faultinject.FileOK
				},
			}
		}, run: func(t *testing.T, f *contractFixture, st *stall) {
			// Joined to level(L): a single-goal entry would be patched by the
			// write, not retired to the brownout table.
			const query = "u[emp(K: salary -u-> V)], level(L)"
			sess := f.open(t)
			if rec := f.post(t, "/v1/query", server.QueryRequest{Session: sess, Query: query}); rec.Code != http.StatusOK {
				t.Fatalf("query: %d %s", rec.Code, rec.Body)
			}
			if rec := f.post(t, "/v1/assert", server.UpdateRequest{Session: sess, Clauses: "u[emp(late: salary -u-> v)]."}); rec.Code != http.StatusOK {
				t.Fatalf("assert: %d %s", rec.Code, rec.Body)
			}
			// Saturate the node, not through h: one read parks inside its
			// admitted span, 16 more fill its queue, the next one is shed.
			flooder, _, err := f.srv.Open(server.OpenRequest{Subject: "flood", Clearance: "u"})
			if err != nil {
				t.Fatal(err)
			}
			node := f.srv.Handler()
			st.hold.Store(true)
			var readers sync.WaitGroup
			defer readers.Wait()
			defer close(st.release)
			flood := func(i int) {
				readers.Add(1)
				go func() {
					defer readers.Done()
					body, _ := json.Marshal(server.QueryRequest{Session: flooder.Token, Query: fmt.Sprintf("u[emp(flood%d: salary -u-> V)]", i)})
					node.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				}()
			}
			flood(0)
			<-st.parked
			const maxQueue = 16
			for i := 1; i <= maxQueue; i++ {
				flood(i)
			}
			for deadline := time.Now().Add(30 * time.Second); f.srv.Stats().Admission.Queued != maxQueue; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the node's admission queue never filled: %+v", f.srv.Stats().Admission)
				}
			}
			rec := f.post(t, "/v1/query", server.QueryRequest{Session: sess, Query: query})
			var resp server.QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.StaleMS == 0 {
				t.Fatalf("a read shed under saturation answered %d %s, want a 200 brownout answer", rec.Code, rec.Body)
			}
			if got := rec.Header().Get("X-Multilog-Stale"); got != strconv.FormatInt(resp.StaleMS, 10) {
				t.Fatalf("a brownout answer with stale_ms %d carried X-Multilog-Stale %q", resp.StaleMS, got)
			}
		}},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					st := &stall{parked: make(chan struct{}, 1), release: make(chan struct{})}
					var cfg server.Config
					if c.cfg != nil {
						cfg = c.cfg(st)
					}
					srv := server.New(cfg)
					if err := srv.Load("contract", contractProgram()); err != nil {
						t.Fatal(err)
					}
					c.run(t, tg.build(t, srv), st)
				})
			}
		})
	}
}
