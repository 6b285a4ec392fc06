package server_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// testProgram is a small Mission-flavored database: alice's salary is
// polyinstantiated across three levels, bob is public.
const testProgram = `
	level(u).  level(c).  level(s).
	order(u, c).  order(c, s).
	u[emp(alice: salary -u-> low)].
	c[emp(alice: salary -c-> mid)].
	s[emp(alice: salary -s-> high)].
	u[emp(bob: salary -u-> low)].
`

// startServer serves a fresh instance of testProgram over httptest and
// returns a client for it.
func startServer(t *testing.T, cfg server.Config) (*server.Server, *server.Client) {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.Load("test", testProgram); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, server.NewClient(hs.URL, hs.Client())
}

func openAt(t *testing.T, c *server.Client, clearance, mode string) string {
	t.Helper()
	resp, err := c.Open(context.Background(), server.OpenRequest{
		Subject: "t", Clearance: clearance, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Session
}

// values extracts the bindings of one variable across all answers.
func values(resp *server.QueryResponse, v string) []string {
	var out []string
	for _, a := range resp.Answers {
		out = append(out, a[v])
	}
	return out
}

func TestQueryAtClearance(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()

	// A u-session sees only u-classified cells.
	u := openAt(t, c, "u", "")
	resp, err := c.QueryContext(ctx, server.QueryRequest{Session: u,
		Query: "L[emp(K: salary -C-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range values(resp, "V") {
		if got != "low" {
			t.Errorf("u session saw %q; only u-classified data is visible", got)
		}
	}
	if len(resp.Answers) != 2 {
		t.Errorf("u session got %d answers, want 2 (alice+bob at u)", len(resp.Answers))
	}

	// An s-session in cautious mode believes only the dominating story.
	s := openAt(t, c, "s", "cau")
	resp, err = c.QueryContext(ctx, server.QueryRequest{Session: s,
		Query: "s[emp(alice: salary -C-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(resp, "V"); len(got) != 1 || got[0] != "high" {
		t.Errorf("cautious s session believes %v, want [high]", got)
	}

	// The same query via an explicit mode override: optimistic sees all.
	resp, err = c.QueryContext(ctx, server.QueryRequest{Session: s,
		Query: "s[emp(alice: salary -C-> V)]", Mode: "opt"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resp.Answers); got != 3 {
		t.Errorf("optimistic s session got %d answers, want 3", got)
	}
}

func TestCacheHitAndEpoch(t *testing.T) {
	srv, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "c", "")
	req := server.QueryRequest{Session: sess, Query: "c[emp(alice: salary -C-> V)]"}

	first, err := c.QueryContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first query reported a cache hit")
	}
	second, err := c.QueryContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat query missed the cache")
	}
	if second.Epoch != first.Epoch {
		t.Errorf("epoch changed without an update: %d -> %d", first.Epoch, second.Epoch)
	}
	st := srv.Stats()
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 {
		t.Errorf("cache stats = %+v, want at least one hit and one miss", st.Cache)
	}
}

// TestUpdateInvalidates is the acceptance-criterion test: a cached answer
// surviving an assert or retract unchanged is a correctness failure. A
// joined query's entry is dropped; a single-goal query's is patched, served
// from the cache with the write in it, as a server cold-started on the
// written program answers.
func TestUpdateInvalidates(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "u", "")
	carol := "u[emp(carol: salary -u-> low)]."
	_, cold := startServer(t, server.Config{})
	coldSess := openAt(t, cold, "u", "")
	if _, err := cold.Assert(ctx, coldSess, carol); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query   string
		patched bool
	}{
		{"u[emp(K: salary -u-> low)], level(u)", false},
		{"u[emp(K: salary -u-> low)]", true},
	} {
		req := server.QueryRequest{Session: sess, Query: tc.query}
		before, err := c.QueryContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(before.Answers) != 2 {
			t.Fatalf("%s: baseline: %d answers, want 2", tc.query, len(before.Answers))
		}
		// Warm the cache.
		if warm, err := c.QueryContext(ctx, req); err != nil || !warm.Cached {
			t.Fatalf("%s: warm query: cached=%v err=%v", tc.query, warm != nil && warm.Cached, err)
		}

		up, err := c.Assert(ctx, sess, carol)
		if err != nil {
			t.Fatal(err)
		}
		if up.Changed != 1 || up.Epoch != before.Epoch+1 {
			t.Fatalf("%s: assert: changed=%d epoch=%d, want 1 and %d", tc.query, up.Changed, up.Epoch, before.Epoch+1)
		}

		after, err := c.QueryContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if after.Cached != tc.patched {
			t.Fatalf("%s: query after assert: cached=%v, want %v", tc.query, after.Cached, tc.patched)
		}
		if len(after.Answers) != 3 {
			t.Fatalf("%s: after assert: %d answers, want 3 (carol missing: stale result)", tc.query, len(after.Answers))
		}
		want, err := cold.QueryContext(ctx, server.QueryRequest{Session: coldSess, Query: tc.query})
		if err != nil || !reflect.DeepEqual(after.Answers, want.Answers) {
			t.Fatalf("%s: after assert: %v, a cold server %v (err=%v)", tc.query, after.Answers, want.Answers, err)
		}
		if after.Epoch != up.Epoch {
			t.Errorf("%s: answer computed at epoch %d, want %d", tc.query, after.Epoch, up.Epoch)
		}

		// And the reverse: retract must remove carol again.
		down, err := c.Retract(ctx, sess, carol)
		if err != nil {
			t.Fatal(err)
		}
		if down.Changed != 1 {
			t.Fatalf("%s: retract changed %d clauses, want 1", tc.query, down.Changed)
		}
		final, err := c.QueryContext(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(final.Answers) != 2 || final.Cached != tc.patched || !reflect.DeepEqual(final.Answers, before.Answers) {
			t.Fatalf("%s: after retract: %v (cached=%v), want %v, cached=%v", tc.query, final.Answers, final.Cached, before.Answers, tc.patched)
		}
	}
}

func TestWriteAuthorization(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	u := openAt(t, c, "u", "")

	// A u-cleared subject cannot write s-classified data.
	_, err := c.Assert(ctx, u, "s[emp(eve: salary -s-> covert)].")
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeDenied {
		t.Fatalf("write-up got %v, want code %q", err, server.CodeDenied)
	}
	// Nor retract it.
	_, err = c.Retract(ctx, u, "s[emp(alice: salary -s-> high)].")
	if !errors.As(err, &re) || re.Code != server.CodeDenied {
		t.Fatalf("retract-up got %v, want code %q", err, server.CodeDenied)
	}
	// Λ is immutable at runtime.
	_, err = c.Assert(ctx, u, "level(x).")
	if !errors.As(err, &re) || re.Code != server.CodeBadRequest {
		t.Fatalf("lattice write got %v, want code %q", err, server.CodeBadRequest)
	}
	// The s-classified fact is still there for an s-session.
	s := openAt(t, c, "s", "")
	resp, err := c.QueryContext(ctx, server.QueryRequest{Session: s,
		Query: "s[emp(alice: salary -s-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(resp, "V"); len(got) != 1 || got[0] != "high" {
		t.Errorf("s data damaged by denied writes: %v", got)
	}
}

func TestSessionCapOverload(t *testing.T) {
	srv, c := startServer(t, server.Config{MaxSessions: 2})
	ctx := context.Background()
	openAt(t, c, "u", "")
	second := openAt(t, c, "c", "")

	_, err := c.Open(ctx, server.OpenRequest{Subject: "x", Clearance: "s"})
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeOverloaded || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("third open got %v, want 503 %q", err, server.CodeOverloaded)
	}
	if st := srv.Stats(); st.Sessions.Denied != 1 || st.Sessions.Open != 2 {
		t.Errorf("session stats = %+v, want 2 open 1 denied", st.Sessions)
	}

	// Closing one admits the next.
	if err := c.Close(ctx, second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(ctx, server.OpenRequest{Subject: "x", Clearance: "s"}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestLintRejectionAtLoadAndUpdate(t *testing.T) {
	srv := server.New(server.Config{})
	// Unsafe head variable: the linter must reject the whole program.
	err := srv.Load("bad", `
		level(u).
		u[p(k: a -u-> V)].
	`)
	var le *server.LintError
	if !errors.As(err, &le) {
		t.Fatalf("load of unsafe program got %v, want *LintError", err)
	}

	// And the same gate guards updates.
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "u", "")
	_, uerr := c.Assert(ctx, sess, "u[p(k: a -u-> V)].")
	var re *server.RemoteError
	if !errors.As(uerr, &re) || re.Code != server.CodeLint {
		t.Fatalf("unsafe assert got %v, want code %q", uerr, server.CodeLint)
	}
}

func TestQueryErrors(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "u", "")

	var re *server.RemoteError
	_, err := c.QueryContext(ctx, server.QueryRequest{Session: sess, Query: "u[emp(k: a -"})
	if !errors.As(err, &re) || re.Code != server.CodeParse {
		t.Fatalf("syntax error got %v, want code %q", err, server.CodeParse)
	}
	_, err = c.QueryContext(ctx, server.QueryRequest{Session: "nope", Query: "u[emp(K: salary -C-> V)]"})
	if !errors.As(err, &re) || re.Code != server.CodeUnknownSession {
		t.Fatalf("bad token got %v, want code %q", err, server.CodeUnknownSession)
	}
	_, err = c.Open(ctx, server.OpenRequest{Subject: "x", Clearance: "zz"})
	if !errors.As(err, &re) || re.Code != server.CodeBadRequest {
		t.Fatalf("bad clearance got %v, want code %q", err, server.CodeBadRequest)
	}
	_, err = c.Open(ctx, server.OpenRequest{Subject: "x", Clearance: "u", DB: "ghost"})
	if !errors.As(err, &re) || re.Code != server.CodeUnknownDB {
		t.Fatalf("bad db got %v, want code %q", err, server.CodeUnknownDB)
	}
}

func TestQueryBudgetTruncation(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "s", "")
	resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess,
		Query: "L[emp(K: salary -C-> V)]", MaxSteps: 1})
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeLimit {
		t.Fatalf("budget query got %v, want code %q", err, server.CodeLimit)
	}
	if resp == nil || !resp.Stats.Truncated {
		t.Fatalf("truncated reply did not carry partial stats: %+v", resp)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	sess := openAt(t, c, "c", "")
	req := server.QueryRequest{Session: sess, Query: "c[emp(alice: salary -C-> V)]"}
	for i := 0; i < 3; i++ {
		if _, err := c.QueryContext(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Served != 3 {
		t.Errorf("served = %d, want 3", st.Queries.Served)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Errorf("cache = %+v, want 2 hits 1 miss", st.Cache)
	}
	db, ok := st.Databases["test"]
	if !ok {
		t.Fatalf("stats lack the test database: %+v", st.Databases)
	}
	if db.Epoch != 1 || db.Sigma != 4 || db.Reductions != 1 {
		t.Errorf("db stats = %+v, want epoch 1, 4 Σ clauses, 1 reduction", db)
	}
}

func TestHealthz(t *testing.T) {
	_, c := startServer(t, server.Config{})
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRawQueryBypassesRewrite(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	// An optimistic session: the rewrite makes s believe every visible
	// cell (three salary stories for alice)...
	sess := openAt(t, c, "s", "opt")
	resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sess,
		Query: "s[emp(alice: salary -C-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 3 {
		t.Fatalf("optimistic view: %d answers, want 3", len(resp.Answers))
	}
	// ...but raw m-semantics matches only the literally s-labeled atom.
	raw, err := c.QueryContext(ctx, server.QueryRequest{Session: sess,
		Query: "s[emp(alice: salary -C-> V)]", Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Answers) != 1 {
		t.Fatalf("raw view: %d answers, want 1 (the s-classified cell)", len(raw.Answers))
	}
	if !strings.Contains(resp.Query, "<< opt") || strings.Contains(raw.Query, "<<") {
		t.Errorf("effective queries wrong: rewritten=%q raw=%q", resp.Query, raw.Query)
	}
}

// TestSharedServingOnAChain: every clause of testProgram is monotone, so one
// reduction, at the chain's top, serves every clearance. /v1/stats says so:
// after queries at every clearance and mode, one reduction was built; each
// write advances that one, the first by adopting its compiled model.
func TestSharedServingOnAChain(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	stats := func() server.DBStats {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st.Databases["test"]
	}
	var sessions []string
	for _, cl := range []string{"u", "c", "s"} {
		for _, m := range []string{"fir", "opt", "cau"} {
			sess := openAt(t, c, cl, m)
			sessions = append(sessions, sess)
			if _, err := c.QueryContext(ctx, server.QueryRequest{Session: sess, Query: "L[emp(K: salary -C-> V)]"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := stats(); st.Reductions != 1 || st.AdvanceIncremental != 0 {
		t.Fatalf("after queries at every clearance: %d reductions, %s; want 1 and no advance", st.Reductions, st.AdvanceTally)
	}
	for i, w := range []string{"u[emp(carl: salary -u-> low)].", "c[emp(dora: salary -c-> mid)].", "s[emp(carl: salary -s-> high)]."} {
		if _, err := c.Assert(ctx, sessions[len(sessions)-1], w); err != nil {
			t.Fatal(err)
		}
		if st := stats(); st.Reductions != 1 || st.AdvanceIncremental != int64(i+1) || st.AdvanceAdopted != 1 || len(st.AdvanceDropped) != 0 {
			t.Fatalf("after write %d: %d reductions, %s; want 1 and %d incremental of which 1 adopted", i+1, st.Reductions, st.AdvanceTally, i+1)
		}
	}
	resp, err := c.QueryContext(ctx, server.QueryRequest{Session: sessions[0], Query: "L[emp(carl: salary -C-> V)]"})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(resp, "V"); !reflect.DeepEqual(got, []string{"low"}) {
		t.Fatalf("carl's salary at u: %v, want [low] (the s cell stays above u)", got)
	}
}

// TestQueryRefusesTranslatedRelations: a query that names a relation the
// reduction introduces per level reads cells of every level unguarded, so it
// is refused at every clearance.
func TestQueryRefusesTranslatedRelations(t *testing.T) {
	_, c := startServer(t, server.Config{})
	ctx := context.Background()
	for _, q := range []string{"mlrel_emp_s(K, A, V, C)", "mlbel_emp_s_fir(K, A, V, C)", "mlexceeded_emp_s(K, A, C)"} {
		for _, cl := range []string{"u", "s"} {
			if resp, err := c.QueryContext(ctx, server.QueryRequest{Session: openAt(t, c, cl, ""), Query: q}); err == nil {
				t.Errorf("%s at %s answered %v", q, cl, resp.Answers)
			}
		}
	}
}

// TestDrainClosesSilentConnections: a connection the server accepted that
// never sends a request does not hold the drain. With it open and a 1 s
// drain, Serve returns nil within 2 s (http.Server.Shutdown alone waits 5 s
// for such a connection, and the drain ended in a deadline error).
func TestDrainClosesSilentConnections(t *testing.T) {
	srv := server.New(server.Config{})
	drainWithSilentConnection(t, func(ctx context.Context, ln net.Listener) error { return srv.Serve(ctx, ln, time.Second) })
}

// drainWithSilentConnection serves on a fresh listener, dials one connection
// that sends nothing, waits for a health check on another to answer — the
// silent one was accepted first — and fails unless cancelling the serve
// returns nil within 2 s.
func drainWithSilentConnection(t *testing.T, serve func(context.Context, net.Listener) error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln) }()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	start := time.Now()
	cancel()
	select {
	case err := <-served:
		if err != nil || time.Since(start) > 2*time.Second {
			t.Fatalf("drain with a silent connection open returned %v after %v", err, time.Since(start))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the drain did not return")
	}
}
