package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/multilog"
	"repro/internal/server"
)

// startRemote serves D1 in-process and returns its host:port.
func startRemote(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
	if err := srv.Load("d1", multilog.D1Source); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return strings.TrimPrefix(hs.URL, "http://")
}

func TestREPLResumesAcrossDaemonRestart(t *testing.T) {
	// A swappable backend stands in for a daemon restart: the new instance
	// serves the same (durable) program but has lost every in-memory
	// session.
	newBackend := func() http.Handler {
		srv := server.New(server.Config{})
		if err := srv.Load("d1", multilog.D1Source); err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	var backend atomic.Value
	backend.Store(newBackend())
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer hs.Close()
	addr := strings.TrimPrefix(hs.URL, "http://")

	var out bytes.Buffer
	r := newREPL(strings.NewReader(""), &out)
	for _, line := range []string{`\connect ` + addr, "login c opt", "?- c[p(k: a -R-> v)]."} {
		if err := r.dispatchSafe(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	token := r.remote.session

	backend.Store(newBackend()) // the daemon restarts; sessions are gone

	for _, line := range []string{"?- c[p(k: a -R-> v)].", "assert c[p(k9: a -c-> w)]"} {
		if err := r.dispatchSafe(line); err != nil {
			t.Fatalf("after restart, %q: %v", line, err)
		}
	}
	if r.remote.session == token {
		t.Error("session token unchanged; the REPL never re-logged-in")
	}
	if got := out.String(); !strings.Contains(got, "re-logged-in at c, mode opt") {
		t.Errorf("transcript missing the resume notice:\n%s", got)
	}
	if got := out.String(); !strings.Contains(got, "asserted 1 clause(s)") {
		t.Errorf("post-restart assert failed:\n%s", got)
	}
}

func TestREPLConnectSession(t *testing.T) {
	addr := startRemote(t)
	out := replSession(t,
		`\connect `+addr,
		"login c opt",
		"?- c[p(k: a -R-> v)].",
		"?- c[p(k: a -R-> v)].", // repeat: served from the result cache
		"stats",
		`\disconnect`,
		"quit",
	)
	for _, want := range []string{
		"connected to " + addr,
		"cleared at c (mode opt, db d1, epoch 1)",
		"[remote] 1 answer(s):", // Example 5.2: R/u
		"{R/u}",
		"[remote, cached] 1 answer(s):",
		"cache:    1 hits",
		"disconnected from " + addr,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLConnectUpdateRoundTrip(t *testing.T) {
	addr := startRemote(t)
	out := replSession(t,
		`\connect `+addr,
		"login u",
		"assert u[p(k2: a -u-> w)]",
		"?- u[p(k2: a -u-> V)].",
		"retract u[p(k2: a -u-> w)]",
		"?- u[p(k2: a -u-> V)].",
		`\disconnect`,
		"quit",
	)
	for _, want := range []string{
		"asserted 1 clause(s); epoch 2",
		"{V/w}",
		"retracted 1 clause(s); epoch 3",
		// The retract patched the answer the query before it cached.
		"[remote, cached] no",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLConnectErrorsAreRecoverable(t *testing.T) {
	addr := startRemote(t)
	out := replSession(t,
		`\connect 127.0.0.1:1`, // nothing listens there
		`\connect `+addr,
		"?- u[p(k: a -R-> V)].", // not logged in yet
		"login zz",              // level not in D1's lattice
		"login u",
		"load foo.mlg", // local-only while connected
		"?- u[p(k: a -C-> V)].",
		"quit",
	)
	for _, want := range []string{
		"error: connecting to 127.0.0.1:1",
		"error: not logged in",
		"error: server: bad-request",
		"cleared at u",
		`error: load is local-only; \disconnect first`,
		"{C/u, V/v}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}
