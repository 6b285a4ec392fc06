package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/replica"
	"repro/internal/server"
)

// respelled serves h with every "k1 in a query reply spelled "k\u0031: the
// same JSON, off the form encoding/json writes.
func respelled(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(bytes.ReplaceAll(rec.Body.Bytes(), []byte(`"k1`), []byte(`"k\u0031`))) //nolint:errcheck // test backend
	})
}

// postJSON posts in to base+path and returns the 200 reply's body.
func postJSON(t *testing.T, base, path string, in any) []byte {
	t.Helper()
	req, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s %v", path, resp.StatusCode, body, err)
	}
	return body
}

// answersOf returns the answers array of a query reply, as its bytes.
func answersOf(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var reply struct{ Answers json.RawMessage }
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.Answers
}

// TestRouterForwardsAnswersUnread: for every query of the answers corpus at
// every clearance, the body a router returns carries its backend's answers
// byte for byte. A backend that spells its answers off encoding/json's form
// shows they pass the router unread: re-encoded, "k\u0031" would come out
// as "k1".
func TestRouterForwardsAnswersUnread(t *testing.T) {
	for _, wc := range server.WireCorpus() {
		for _, respell := range []bool{false, true} {
			srv := server.New(server.Config{})
			if err := srv.Load("wire", wc.Src); err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			if respell {
				h = respelled(h)
			}
			backend := httptest.NewServer(h)
			router, err := replica.NewRouter(replica.RouterConfig{Primary: backend.URL})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(router.Handler())
			compared, escaped := 0, 0
			for _, lvl := range srv.Clearances("wire") {
				open := server.OpenRequest{Subject: "w", DB: "wire", Clearance: lvl, Mode: "opt"}
				var direct, routed server.OpenResponse
				for _, s := range []struct {
					base string
					out  *server.OpenResponse
				}{{backend.URL, &direct}, {front.URL, &routed}} {
					if err := json.Unmarshal(postJSON(t, s.base, "/v1/session", open), s.out); err != nil {
						t.Fatal(err)
					}
				}
				for _, q := range wc.Queries {
					want := answersOf(t, postJSON(t, backend.URL, "/v1/query", server.QueryRequest{Session: direct.Session, Query: q}))
					got := answersOf(t, postJSON(t, front.URL, "/v1/query", server.QueryRequest{Session: routed.Session, Query: q}))
					if !bytes.Equal(got, want) {
						t.Fatalf("%s (respelled %v) %s at %s: routed answers\n%s\nthe backend's\n%s", wc.Name, respell, q, lvl, got, want)
					}
					compared++
					if bytes.Contains(got, []byte(`\u0031`)) {
						escaped++
					}
				}
			}
			front.Close()
			backend.Close()
			if compared == 0 || respell && escaped == 0 {
				t.Fatalf("%s (respelled %v): %d queries compared, %d with an escape, want some", wc.Name, respell, compared, escaped)
			}
			t.Logf("%s (respelled %v): %d routed answer sets equal the backend's, %d spelled with an escape", wc.Name, respell, compared, escaped)
		}
	}
}
