package replica

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
)

// TestCanonicalHostPort pins the address matching adoptPrimary relies on:
// equivalent spellings of one endpoint compare equal, and a host that
// merely ends with another's name does not.
func TestCanonicalHostPort(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"http://localhost:7070", "127.0.0.1:7070", true},
		{"localhost:7070", "http://127.0.0.1:7070", true},
		{"http://NODE1:7070", "http://node1:7070", true},
		{"http://node1:7070/", "node1:7070", true},
		{"http://a.internal:7070", "internal:7070", false},
		{"http://node1:7070", "http://node1:7071", false},
		{"http://node1:7070", "http://node2:7070", false},
	}
	for _, c := range cases {
		if got := canonicalHostPort(c.a) == canonicalHostPort(c.b); got != c.same {
			t.Errorf("canonicalHostPort(%q)=%q vs canonicalHostPort(%q)=%q: equal=%v, want %v",
				c.a, canonicalHostPort(c.a), c.b, canonicalHostPort(c.b), got, c.same)
		}
	}
}

// TestRouterWrapContainsPanics: a panicking handler answers 500 internal,
// as a node's does, instead of taking the router down.
func TestRouterWrapContainsPanics(t *testing.T) {
	r, err := NewRouter(RouterConfig{Primary: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	h := r.wrap(func(http.ResponseWriter, *http.Request) error { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("a panicking handler answered %d, want 500: %s", rec.Code, rec.Body)
	}
}

// brokenPipe is a ResponseWriter whose client has gone: every Write fails.
// It counts the statuses written.
type brokenPipe struct {
	header  http.Header
	headers int
}

func (w *brokenPipe) Header() http.Header       { return w.header }
func (w *brokenPipe) WriteHeader(int)           { w.headers++ }
func (w *brokenPipe) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestRouterWrapWritesOneStatus: a handler whose reply fails mid-body
// returns the write's error after its status went out; the router must not
// answer that error with a second status.
func TestRouterWrapWritesOneStatus(t *testing.T) {
	r, err := NewRouter(RouterConfig{Primary: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	h := r.wrap(func(w http.ResponseWriter, _ *http.Request) error {
		return writeJSON(w, http.StatusOK, server.CloseResponse{Closed: true})
	})
	w := &brokenPipe{header: http.Header{}}
	h(w, httptest.NewRequest(http.MethodPost, "/v1/session/close", nil))
	if w.headers != 1 {
		t.Fatalf("a reply that failed mid-body wrote %d statuses, want 1", w.headers)
	}
}
