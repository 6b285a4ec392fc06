package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/workload"
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

// TestRoutedReadAllocsFlatInRows: a read through a router — the backend's
// cached hit, the router's client reading the reply, the router's reply —
// allocates for a scan of about 400 rows at most 1.25x what it does for a
// 1-row point: the router delimits the answers it forwards and never
// decodes them, where a map per row would make the scan's cost grow with
// its rows.
func TestRoutedReadAllocsFlatInRows(t *testing.T) {
	srv := server.New(server.Config{})
	if err := srv.Load("rows", workload.ProgramSource(workload.ProgramConfig{
		Levels: 4, Facts: 800, Rules: 16, Preds: 6, Seed: 1, Poly: 0.3})); err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(srv.Handler())
	defer backend.Close()
	router, err := replica.NewRouter(replica.RouterConfig{Primary: backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	h := router.Handler()
	serve := func(path string, in any) *httptest.ResponseRecorder {
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	var open server.OpenResponse
	if err := json.Unmarshal(serve("/v1/session", server.OpenRequest{
		Subject: "rows", DB: "rows", Clearance: "l3", Mode: "opt"}).Body.Bytes(), &open); err != nil {
		t.Fatal(err)
	}
	scan := server.QueryRequest{Session: open.Session, Query: "L[p0(K: a -C-> V)]"}
	var resp server.QueryResponse
	if err := json.Unmarshal(serve("/v1/query", scan).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, a := range resp.Answers {
		keys[a["K"]]++
	}
	point := server.QueryRequest{Session: open.Session}
	for k, n := range keys {
		if n == 1 {
			point.Query = fmt.Sprintf("L[p0(%s: a -C-> V)]", k)
			break
		}
	}
	if len(resp.Answers) < 300 || point.Query == "" {
		t.Fatalf("the scan found %d rows over %d keys, want hundreds and a key with one", len(resp.Answers), len(keys))
	}
	serve("/v1/query", point)
	read := func(req server.QueryRequest) float64 {
		return testing.AllocsPerRun(50, func() {
			if rec := serve("/v1/query", req); !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
				t.Fatalf("%s: not a cache hit: %.200s", req.Query, rec.Body)
			}
		})
	}
	scanAllocs, pointAllocs := read(scan), read(point)
	t.Logf("allocations per routed read: %.0f for the %d-row scan, %.0f for a 1-row point", scanAllocs, len(resp.Answers), pointAllocs)
	if scanAllocs > 1.25*pointAllocs {
		t.Errorf("a routed read of %d rows allocates %.0f times, a 1-row one %.0f: %.2fx, want at most 1.25x",
			len(resp.Answers), scanAllocs, pointAllocs, scanAllocs/pointAllocs)
	}
}
