package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/wal"
)

// precisionProgram has two independent base predicates (emp, dept) and one
// derived predicate (payroll) that reads emp's optimistic beliefs — the
// dependency graph the cache-precision table below quantifies over.
const precisionProgram = `
	level(l0). level(l1). order(l0, l1).
	l0[emp(alice: salary -l0-> low)].
	l1[emp(alice: salary -l1-> mid)].
	l0[dept(eng: head -l0-> alice)].
	l1[payroll(K: cost -l1-> V)] :- l0[emp(K: salary -C-> V)] << opt.
`

func newIncServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Load("test", precisionProgram); err != nil {
		t.Fatal(err)
	}
	return s
}

func openSess(t *testing.T, s *Server, clearance, mode string) *Session {
	t.Helper()
	sess, _, err := s.Open(OpenRequest{Subject: "t", Clearance: clearance, Mode: mode, DB: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func runQuery(t *testing.T, s *Server, sess *Session, q string) *QueryResponse {
	t.Helper()
	resp, err := query(context.Background(), s, sess, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return resp
}

// query is Server.Query with the encoded answers decoded into resp.Answers,
// as a Client would see them.
func query(ctx context.Context, s *Server, sess *Session, req QueryRequest) (*QueryResponse, error) {
	resp, answers, err := s.Query(ctx, sess, req)
	if resp != nil {
		if derr := json.Unmarshal(answers, &resp.Answers); derr != nil {
			return nil, derr
		}
	}
	return resp, err
}

// joined is q joined with level(C): two goals, so no write patches it, over
// q's relations and the lattice, which no write changes — the probe a write
// that changes what q reads must evict.
func joined(q string) string { return q + ", level(C)" }

// coldEqual queries q at sess and fails unless the answers' bytes are a
// server's cold-started on the current program, cached or not; it returns the
// response, answers decoded.
func coldEqual(t *testing.T, s *Server, sess *Session, q string) *QueryResponse {
	t.Helper()
	ctx := context.Background()
	resp, got, err := s.Query(ctx, sess, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	prog, err := s.program(sess.DB)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Config{})
	if err := cold.Load(sess.DB, prog.current().db.Database().String()); err != nil {
		t.Fatal(err)
	}
	csess, _, err := cold.Open(OpenRequest{Subject: "cold", Clearance: string(sess.Clearance), Mode: string(sess.Mode), DB: sess.DB})
	if err != nil {
		t.Fatal(err)
	}
	if _, want, err := cold.Query(ctx, csess, QueryRequest{Query: q}); err != nil || !bytes.Equal(got, want) {
		t.Errorf("%q at %s answers %s (cached=%v), a cold server %s (err=%v)", q, sess.Clearance, got, resp.Cached, want, err)
	}
	if err := json.Unmarshal(got, &resp.Answers); err != nil {
		t.Fatal(err)
	}
	return resp
}

func runUpdate(t *testing.T, s *Server, sess *Session, clauses string, retract bool) *UpdateResponse {
	t.Helper()
	resp, err := s.Update(context.Background(), sess, UpdateRequest{Clauses: clauses}, retract)
	if err != nil {
		t.Fatalf("update %q: %v", clauses, err)
	}
	return resp
}

// TestCachePrecision pins the invalidation contract: a write, fact or rule,
// evicts exactly the cached entries of queries it cannot patch whose
// relations its advance changed at their clearance — directly or through
// rules — and no other; and it evicts no single-goal query's entry, which
// answers after it as a cold server does.
func TestCachePrecision(t *testing.T) {
	queries := []string{
		"l0[emp(K: salary -C-> V)]",
		"l0[dept(K: head -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
	}
	cases := []struct {
		name    string
		clauses string
		retract bool
		evicted []bool // parallel to queries
	}{
		{
			name:    "dept write leaves emp and payroll cached",
			clauses: "l0[dept(sales: head -l0-> bob)].",
			evicted: []bool{false, true, false},
		},
		{
			name:    "emp write evicts emp and the derived payroll",
			clauses: "l0[emp(carol: salary -l0-> low)].",
			evicted: []bool{true, false, true},
		},
		{
			name:    "retract is as precise as assert",
			clauses: "l0[dept(sales: head -l0-> bob)].",
			retract: true,
			evicted: []bool{false, true, false},
		},
		{
			// extra is read by none of the queries.
			name:    "rule write evicts only what it changes",
			clauses: "l1[extra(K: x -l1-> V)] :- l0[dept(K: head -C-> V)].",
			evicted: []bool{false, false, false},
		},
		{
			name:    "rule deriving into payroll evicts payroll",
			clauses: "l1[payroll(K: cost -l1-> V)] :- l0[dept(K: head -C-> V)].",
			evicted: []bool{false, false, true},
		},
	}
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Prime: miss then hit for every query, joined or not.
			for _, q := range queries {
				for _, q := range []string{q, joined(q)} {
					runQuery(t, s, sess, q)
					if got := runQuery(t, s, sess, q); !got.Cached {
						t.Fatalf("prime %q: second query missed the cache", q)
					}
				}
			}
			up := runUpdate(t, s, sess, tc.clauses, tc.retract)
			if up.Changed == 0 {
				t.Fatalf("update %q changed nothing", tc.clauses)
			}
			if !up.Incremental || len(up.ChangedPreds) == 0 {
				t.Errorf("update advanced nothing: Incremental=%v ChangedPreds=%v", up.Incremental, up.ChangedPreds)
			}
			for i, q := range queries {
				resp := runQuery(t, s, sess, joined(q))
				if tc.evicted[i] && resp.Cached {
					t.Errorf("query %q served a stale cached answer after %q", joined(q), tc.clauses)
				}
				if !tc.evicted[i] && !resp.Cached {
					t.Errorf("query %q was evicted by the independent write %q", joined(q), tc.clauses)
				}
				if resp := coldEqual(t, s, sess, q); !resp.Cached {
					t.Errorf("query %q was evicted by %q, not patched", q, tc.clauses)
				}
			}
		})
	}
}

// TestCachePrecisionObservesWrites double-checks precision is not staleness:
// after a write, the dependent query's answer reflects it — the joined one's
// fresh, the single-goal one's patched — and the grown answer set is served
// from the cache again.
func TestCachePrecisionObservesWrites(t *testing.T) {
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	for _, single := range []bool{false, true} {
		q := "l0[dept(K: head -C-> V)]"
		if !single {
			q = joined(q)
		}
		before := runQuery(t, s, sess, q)
		runQuery(t, s, sess, q) // cached
		runUpdate(t, s, sess, fmt.Sprintf("l0[dept(sales%d: head -l0-> bob)].", before.Epoch), false)
		after := coldEqual(t, s, sess, q)
		if after.Cached != single {
			t.Fatalf("%q after the write: cached=%v, want %v", q, after.Cached, single)
		}
		if len(after.Answers) != len(before.Answers)+1 {
			t.Fatalf("%q: write not visible: %d answers before, %d after", q, len(before.Answers), len(after.Answers))
		}
		if got := runQuery(t, s, sess, q); !got.Cached || len(got.Answers) != len(after.Answers) {
			t.Fatalf("%q: post-write answer not re-cached correctly (cached=%v, %d answers)", q, got.Cached, len(got.Answers))
		}
	}
}

// fourLevelProgram is precisionProgram under a four-level chain. Every
// clause of both is monotone (multilog.MonotoneClause): one reduction, at l3,
// serves every clearance.
const fourLevelProgram = precisionProgram + `
	level(l2). level(l3). order(l1, l2). order(l2, l3).
`

// perClearance is a fixture's non-monotone twin: z's class comes from a
// p-goal, which no monotone clause may do, so each clearance is served from
// its own reduction. z is read by no probe, and zz derives one z cell at top.
func perClearance(src, top string) string {
	return src + "zz(none, l0, none).\n" + top + "[z(K: a -C-> V)] :- zz(K, C, V).\n"
}

// TestServerAssertRetractMetamorphic is the write-path no-op property end to
// end, for a fact, a Σ rule and a Π rule alike, each as the first write after
// cold queries at four clearances — the write that finds compiled models and
// adopts them: every warm reduction is advanced, none dropped — four on the
// fixture's non-monotone twin, one per clearance, and on the monotone fixture
// one, at l3, serving all four; asserting the
// clause and retracting it leaves the database source byte-identical, every
// probe query's answers, across all three belief modes and every clearance,
// byte-identical to what the compiled models answered, and every warm
// reduction's base counts those of a fresh build; and in between, the
// answers are those of a server cold-started on the program the write
// produced.
func TestServerAssertRetractMetamorphic(t *testing.T) {
	probes := []string{
		"L[emp(K: salary -C-> V)]",
		"l0[emp(K: salary -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
		"l0[dept(K: head -C-> V)]",
		"L[bonus(K: due -C-> V)]",
		"senior(X)",
	}
	clearances := []string{"l0", "l1", "l2", "l3"}
	collect := func(s *Server) map[string][][]map[string]string {
		out := map[string][][]map[string]string{}
		for _, cl := range clearances {
			for _, m := range []string{"fir", "opt", "cau"} {
				sess := openSess(t, s, cl, m)
				for _, q := range probes {
					out[cl+"/"+m] = append(out[cl+"/"+m], runQuery(t, s, sess, q).Answers)
				}
			}
		}
		return out
	}
	for _, fx := range []struct {
		name, src string
		serving   int64 // reductions: one per serving level
		clauses   []string
	}{
		{"per-clearance", perClearance(fourLevelProgram, "l3"), 4, []string{
			"l1[emp(dave: salary -l1-> mid)].",
			"l1[bonus(K: due -l1-> V)] :- L[emp(K: salary -C-> V)] << cau.",
			"senior(X) :- level(X), order(Y, X).",
		}},
		// The Σ rule's body level is a constant below its head's: monotone.
		{"shared", fourLevelProgram, 1, []string{
			"l1[emp(dave: salary -l1-> mid)].",
			"l1[bonus(K: due -l1-> V)] :- l0[emp(K: salary -C-> V)] << cau.",
			"senior(X) :- level(X), order(Y, X).",
		}},
	} {
		for _, clause := range fx.clauses {
			serving := fx.serving
			s := New(Config{})
			if err := s.Load("test", fx.src); err != nil {
				t.Fatal(err)
			}
			prog, err := s.program("test")
			if err != nil {
				t.Fatal(err)
			}
			dbSource := func() string { return prog.current().db.Database().String() }
			// counts are the warm reductions' base counts; fresh, those of a
			// from-scratch interpreted build of the current database at each clearance.
			counts := func(fresh bool) map[string]any {
				snap, out := prog.current(), map[string]any{}
				snap.redMu.RLock()
				defer snap.redMu.RUnlock()
				for u, red := range snap.reductions {
					if fresh {
						var err error
						if red, err = multilog.Reduce(snap.db.Database(), u); err == nil {
							err = red.Prepare(context.Background(), resource.Limits{})
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					out[string(u)] = red.Counts()
				}
				return out
			}
			advances := func(step string, incremental, adopted int64) {
				t.Helper()
				if st := s.Stats().Databases["test"]; st.AdvanceIncremental != incremental || st.AdvanceAdopted != adopted || len(st.AdvanceDropped) != 0 {
					t.Fatalf("%s %s: %s: %s, want %d incremental of which %d adopted and none dropped", fx.name, clause, step, st.AdvanceTally, incremental, adopted)
				}
			}
			writer := openSess(t, s, "l3", "")
			baseSrc, baseAnswers := dbSource(), collect(s)
			advances("cold", 0, 0)

			if up := runUpdate(t, s, writer, clause, false); up.Changed != 1 {
				t.Fatalf("%s %s: assert changed %d clauses, want 1", fx.name, clause, up.Changed)
			}
			advances("first write", serving, serving)
			midAnswers := collect(s)
			if reflect.DeepEqual(baseAnswers, midAnswers) {
				t.Fatalf("%s %s: assert was not observable through the probes", fx.name, clause)
			}
			if got, want := counts(false), counts(true); int64(len(got)) != serving || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: base counts after adoption and the write differ from a fresh build's", fx.name, clause)
			}
			cold := New(Config{})
			if err := cold.Load("test", dbSource()); err != nil {
				t.Fatalf("%s %s: cold start on the written program: %v", fx.name, clause, err)
			}
			if got := collect(cold); !reflect.DeepEqual(got, midAnswers) {
				t.Errorf("%s %s: answers after the write differ from a cold start on the same program\ngot:  %v\nwant: %v", fx.name, clause, midAnswers, got)
			}
			if up := runUpdate(t, s, writer, clause, true); up.Changed != 1 {
				t.Fatalf("%s %s: retract changed %d clauses, want 1", fx.name, clause, up.Changed)
			}
			advances("retract", 2*serving, serving)

			if got := dbSource(); got != baseSrc {
				t.Errorf("%s %s: assert-then-retract changed the database source\ngot:\n%s\nwant:\n%s", fx.name, clause, got, baseSrc)
			}
			if got := collect(s); !reflect.DeepEqual(got, baseAnswers) {
				t.Errorf("%s %s: assert-then-retract changed probe answers across modes/clearances", fx.name, clause)
			}
			// bonus is new to Σ: its inert axioms stay behind and derive nothing,
			// so the counts are a fresh build's all the same.
			if got, want := counts(false), counts(true); int64(len(got)) != serving || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: assert-then-retract left base counts a fresh build does not have", fx.name, clause)
			}
		}
	}
}

// TestUpdateAdvancesPreparedReductions pins the model-reuse half of the
// write path: a fact write must carry the warm reductions into the new
// snapshot (advanced incrementally), not discard them — one per clearance on
// the fixture's non-monotone twin, one at l1 serving both on the fixture.
func TestUpdateAdvancesPreparedReductions(t *testing.T) {
	for _, fx := range []struct {
		src     string
		serving int
	}{{perClearance(precisionProgram, "l1"), 2}, {precisionProgram, 1}} {
		updateAdvancesPreparedReductions(t, fx.src, fx.serving)
	}
}

func updateAdvancesPreparedReductions(t *testing.T, src string, serving int) {
	s := New(Config{})
	if err := s.Load("test", src); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []string{"l0", "l1"} {
		runQuery(t, s, openSess(t, s, cl, ""), "l0[emp(K: salary -C-> V)]")
	}
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	warm := func() int {
		snap := prog.current()
		snap.redMu.RLock()
		defer snap.redMu.RUnlock()
		return len(snap.reductions)
	}
	if n := warm(); n != serving {
		t.Fatalf("expected %d warm reductions before the write, got %d", serving, n)
	}
	writer := openSess(t, s, "l1", "")
	runUpdate(t, s, writer, "l0[emp(erin: salary -l0-> low)].", false)
	if n := warm(); n != serving {
		t.Fatalf("fact write dropped warm reductions: %d remain, want %d", n, serving)
	}
	// The advanced models must answer correctly (the new fact is visible).
	resp := runQuery(t, s, openSess(t, s, "l0", ""), "l0[emp(erin: salary -C-> V)]")
	if len(resp.Answers) != 1 {
		t.Fatalf("advanced reduction lost the written fact: %d answers", len(resp.Answers))
	}
}

// TestCachePrecisionAcrossClearances: invalidation is per clearance. A fact
// at l0, which both clearances read, evicts both sessions' joined entries
// over it. A write-down rule derives l0's leak from l1's emp — at clearance
// l1 only, for at l0 its body is guarded out — so a fact at l1 evicts the l1
// session's joined entry over leak and leaves the l0 session's cached, with
// the answers a server cold-started on the written program gives. (A
// clearance-independent closure evicts both: a write above l0 observable at
// l0 as a cache miss.) The single-goal entries are patched at both
// clearances and answer as the cold server does.
func TestCachePrecisionAcrossClearances(t *testing.T) {
	s := newIncServer(t, Config{})
	low := openSess(t, s, "l0", "")
	high := openSess(t, s, "l1", "")
	prime := func(q string) {
		t.Helper()
		for _, sess := range []*Session{low, high} {
			runQuery(t, s, sess, q)
			if got := runQuery(t, s, sess, q); !got.Cached {
				t.Fatal("prime query missed")
			}
		}
	}
	sees := func(resp *QueryResponse, key string) bool {
		for _, a := range resp.Answers {
			if a["K"] == key {
				return true
			}
		}
		return false
	}
	q := "l0[emp(K: salary -C-> V)]"
	prime(q)
	prime(joined(q))
	runUpdate(t, s, high, "l0[emp(gail: salary -l0-> low)].", false)
	for i, sess := range []*Session{low, high} {
		resp := runQuery(t, s, sess, joined(q))
		if resp.Cached {
			t.Errorf("session %d served stale answers after a cross-clearance write", i)
		}
		if !sees(resp, "gail") {
			t.Errorf("session %d does not see the written fact: %v", i, resp.Answers)
		}
		if resp := coldEqual(t, s, sess, q); !resp.Cached || !sees(resp, "gail") {
			t.Errorf("session %d's single-goal entry: cached=%v answers=%v", i, resp.Cached, resp.Answers)
		}
	}

	runUpdate(t, s, high, `
		l0[leak(ann: x -l0-> low)].
		l0[leak(K: x -l0-> V)] :- l1[emp(K: salary -C-> V)] << fir.`, false)
	single := "L[leak(K: x -C-> V)]"
	q = joined(single)
	prime(single)
	prime(q)
	runUpdate(t, s, high, "l1[emp(hank: salary -l1-> mid)].", false)
	if resp := runQuery(t, s, high, q); resp.Cached || !sees(resp, "hank") {
		t.Errorf("l1 session after a fact at l1: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
	for _, sess := range []*Session{low, high} {
		if resp := coldEqual(t, s, sess, single); !resp.Cached || sees(resp, "hank") != (sess == high) {
			t.Errorf("%s session's single-goal entry after a fact at l1: cached=%v answers=%v", sess.Clearance, resp.Cached, resp.Answers)
		}
	}
	resp := runQuery(t, s, low, q)
	if !resp.Cached {
		t.Error("a fact at l1 evicted the l0 session's entry")
	}
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Config{})
	if err := cold.Load("test", prog.current().db.Database().String()); err != nil {
		t.Fatal(err)
	}
	want := runQuery(t, cold, openSess(t, cold, "l0", ""), q)
	if !reflect.DeepEqual(resp.Answers, want.Answers) || !sees(resp, "ann") {
		t.Errorf("l0 session's cached answers %v, a cold server's %v", resp.Answers, want.Answers)
	}
}

// TestCancelledWriteLeavesNothingBehind: the update critical section runs
// under the request's context, and a write whose context is done before
// commit is abandoned — no commit callback (hence no WAL record), no new
// snapshot, no epoch — and reported as a cancellation. The next write goes
// through as if the abandoned one had never been sent.
func TestCancelledWriteLeavesNothingBehind(t *testing.T) {
	store, rec, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(Config{WAL: store})
	if err := s.Recover(rec, map[string]string{"test": precisionProgram}); err != nil {
		t.Fatal(err)
	}
	sess := openSess(t, s, "l1", "")
	runQuery(t, s, sess, "l0[emp(K: salary -C-> V)]") // a warm reduction to advance
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	before, appended := prog.current(), s.Stats().Durability.Appended
	fact := "l0[emp(hal: salary -l0-> low)]."

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	committed := false
	_, _, _, err = prog.update(cancelled, fact, "l1", false, func() error { committed = true; return nil })
	if !errors.Is(err, resource.ErrCanceled) {
		t.Fatalf("cancelled update returned %v, want resource.ErrCanceled", err)
	}
	if committed {
		t.Fatal("a cancelled update reached its commit callback")
	}
	if _, err := s.Update(cancelled, sess, UpdateRequest{Clauses: fact}, false); err == nil {
		t.Fatal("Server.Update with a cancelled context succeeded")
	}
	if prog.current() != before || s.Stats().Durability.Appended != appended || prog.updates.Load() != 0 {
		t.Fatalf("a cancelled write left a trace: snapshot changed=%v, WAL appends %d → %d, updates %d",
			prog.current() != before, appended, s.Stats().Durability.Appended, prog.updates.Load())
	}
	if st := s.Stats().Databases["test"]; st.AdvanceIncremental != 0 || st.AdvanceAdopted != 0 || len(st.AdvanceDropped) != 0 {
		t.Fatalf("a cancelled write was counted as an advance: %+v", st)
	}

	up := runUpdate(t, s, sess, fact, false)
	if up.Epoch != before.epoch+1 || s.Stats().Durability.Appended != appended+1 {
		t.Fatalf("the write after a cancelled one: epoch %d (want %d), WAL appends %d (want %d)",
			up.Epoch, before.epoch+1, s.Stats().Durability.Appended, appended+1)
	}
}

// TestAdvanceReasonsOnStats: /v1/stats says, per database, how committed
// writes carried the warm reductions forward — patched, after adopting a
// compiled model or not — or dropped them, and why. A reduction a write drops
// is exactly the one whose advance failed; the next read at that clearance
// builds it again. On the fixture's non-monotone twin each write advances
// the reductions at l0 and l1; on the fixture, the one at l1 serving both.
func TestAdvanceReasonsOnStats(t *testing.T) {
	advanceReasonsOnStats(t, perClearance(precisionProgram, "l1"), 2)
	advanceReasonsOnStats(t, precisionProgram, 1)
}

func advanceReasonsOnStats(t *testing.T, src string, serving int64) {
	s := New(Config{})
	if err := s.Load("test", src); err != nil {
		t.Fatal(err)
	}
	writer := openSess(t, s, "l1", "")
	low := openSess(t, s, "l0", "")
	for _, sess := range []*Session{low, writer} {
		runQuery(t, s, sess, "l0[emp(K: salary -C-> V)]")
	}
	want := DBStats{}
	check := func(step string) {
		t.Helper()
		got := s.Stats().Databases["test"]
		if got.AdvanceIncremental != want.AdvanceIncremental || got.AdvanceAdopted != want.AdvanceAdopted ||
			!reflect.DeepEqual(got.AdvanceDropped, want.AdvanceDropped) {
			t.Fatalf("%s: %s, want %s", step, got.AdvanceTally, want.AdvanceTally)
		}
	}
	check("before any write")

	// The first queries prepared both clearances through the compiled
	// engine, which hands over a model and no engine: the first write adopts it.
	runUpdate(t, s, writer, "l0[emp(ivy: salary -l0-> low)].", false)
	want.AdvanceIncremental, want.AdvanceAdopted = serving, serving
	check("first fact write")

	runUpdate(t, s, writer, "l0[emp(jon: salary -l0-> low)].", false)
	runUpdate(t, s, writer, "l0[emp(jon: salary -l0-> low)].", true)
	want.AdvanceIncremental += 2 * serving
	check("fact assert + retract")

	// Neither a predicate's first mention (its belief axioms come along as
	// added rules) nor a rule write, Σ or Π, assert or retract, is anything
	// but a delta.
	for _, w := range []struct {
		step, clauses string
		retract       bool
	}{
		{"first fact of a new predicate", "l0[badge(ivy: colour -l0-> red)].", false},
		{"Σ rule write", "l1[audit(K: seen -l1-> V)] :- l0[badge(K: colour -C-> V)] << fir.", false},
		{"Π rule write", "cleared(X) :- level(X).", false},
		{"Π rule retract", "cleared(X) :- level(X).", true},
		{"Σ rule retract", "l1[audit(K: seen -l1-> V)] :- l0[badge(K: colour -C-> V)] << fir.", true},
	} {
		runUpdate(t, s, writer, w.clauses, w.retract)
		want.AdvanceIncremental += serving
		check(w.step)
	}

	// A retract that matches nothing is no write at all.
	runUpdate(t, s, writer, "l0[emp(nobody: salary -l0-> low)].", true)
	check("no-op retract")

	// Under a one-step advance budget a fact written at l1 still reaches the
	// reduction at l0 — one base tuple in a relation nothing there reads — and
	// fails at l1, where belief axioms fire: that reduction, and only that
	// one, is dropped, by name, and rebuilt by the next read at l1.
	// Shared, the reduction at l1 is the only one.
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	warm := func() (out []string) {
		snap := prog.current()
		snap.redMu.RLock()
		defer snap.redMu.RUnlock()
		for u := range snap.reductions {
			out = append(out, string(u))
		}
		return out
	}
	prog.limits = resource.Limits{MaxSteps: 1}
	runUpdate(t, s, writer, "l1[emp(kay: salary -l1-> mid)].", false)
	want.AdvanceIncremental += serving - 1
	want.AdvanceDropped = map[string]int64{"delta-failed": 1}
	check("write under a one-step limit")
	survivors := []string{"l0"}[:serving-1]
	if got := warm(); !slices.Equal(got, survivors) {
		t.Fatalf("warm reductions after the failed advance: %v, want exactly %v", got, survivors)
	}
	if resp := runQuery(t, s, writer, "l1[emp(kay: salary -C-> V)]"); len(resp.Answers) != 1 {
		t.Fatalf("the read after a dropped advance: %v", resp.Answers)
	}
	if got := warm(); int64(len(got)) != serving {
		t.Fatalf("the read at l1 did not rebuild its reduction: warm %v", got)
	}
	// The rebuilt reduction is a compiled model again: the next write adopts it.
	prog.limits = resource.Limits{}
	runUpdate(t, s, writer, "l1[emp(kay: salary -l1-> mid)].", true)
	want.AdvanceIncremental += serving
	want.AdvanceAdopted++
	check("write after the rebuild")
}

// twoTopProgram is a monotone program over a lattice with two maximal levels,
// a and b: l0 is served from a, the first, and b from its own reduction.
const twoTopProgram = `
	level(l0). level(a). level(b). order(l0, a). order(l0, b).
	l0[emp(alice: salary -l0-> low)].
	a[emp(alice: salary -a-> mid)].
	l0[dept(eng: head -l0-> alice)].
	b[payroll(K: cost -b-> V)] :- l0[emp(K: salary -C-> V)] << opt.
`

// TestColdBuildBlocksNobodyElse: a cold build runs outside the reductions
// map's lock, behind an in-flight entry of its own serving level. With the
// build at a cold level parked on an injected stall (the evaluation's fault
// probe), a cache-missing read at warm l0 (which prices its admission by
// looking the map up), /v1/stats and a fact write (which walks the map to
// advance what is warm) all complete; a second reader at the cold level waits
// for the one build instead of starting another, and gets the reduction it
// leaves. The cold level is l3 on the four-level fixture's non-monotone twin,
// where l0 is served from its own reduction, and b on a monotone program with
// two maximal levels, where l0 is served from a.
func TestColdBuildBlocksNobodyElse(t *testing.T) {
	coldBuildBlocksNobodyElse(t, perClearance(fourLevelProgram, "l3"), "l3", "l1[payroll(K: cost -C-> V)]")
	coldBuildBlocksNobodyElse(t, twoTopProgram, "b", "b[payroll(K: cost -C-> V)]")
}

func coldBuildBlocksNobodyElse(t *testing.T, src string, cold lattice.Label, q string) {
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	s := New(Config{Limits: resource.Limits{Probe: func(resource.Event, int64) error {
		if park.CompareAndSwap(true, false) {
			parked <- struct{}{}
			<-release
		}
		return nil
	}}})
	if err := s.Load("test", src); err != nil {
		t.Fatal(err)
	}
	low, high := openSess(t, s, "l0", ""), openSess(t, s, string(cold), "")
	runQuery(t, s, low, "l0[emp(K: salary -C-> V)]") // warms l0

	park.Store(true)
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.current()
	first := make(chan int, 1)
	go func() {
		resp, err := query(context.Background(), s, high, QueryRequest{Query: q})
		if err != nil {
			t.Error(err)
			first <- -1
			return
		}
		first <- len(resp.Answers)
	}()
	select {
	case <-parked:
	case n := <-first:
		t.Fatalf("the reader at %s answered (%d rows) without a cold build", cold, n)
	}
	// The second reader asks the same snapshot, whatever the write below swaps
	// in: it finds the build in flight, or the reduction it left.
	second := make(chan *multilog.Reduction, 1)
	go func() {
		red, err := snap.reductionAt(context.Background(), cold, resource.Limits{})
		if err != nil {
			t.Error(err)
		}
		second <- red
	}()

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("%s waited for another clearance's cold build", what)
		}
	}
	within("a miss read at a warm clearance", func() { runQuery(t, s, low, "l0[dept(K: head -C-> V)]") })
	within("/v1/stats", func() { s.Stats() })
	within("a fact write", func() { runUpdate(t, s, low, "l0[dept(ops: head -l0-> bob)].", false) })
	select {
	case <-first:
		t.Fatal("the reader at the cold clearance answered before its build finished")
	case <-second:
		t.Fatal("the second reader at the cold clearance did not wait for the build in flight")
	default:
	}

	close(release)
	if n := <-first; n != 1 {
		t.Errorf("the reader at %s got %d payroll rows, want 1", cold, n)
	}
	snap.redMu.RLock()
	built := snap.reductions[cold]
	snap.redMu.RUnlock()
	if red := <-second; red == nil || red != built {
		t.Errorf("the second reader at %s did not get the reduction the one build left", cold)
	}
	if st := s.Stats().Databases["test"]; st.AdvanceIncremental != 1 || st.AdvanceAdopted != 1 {
		t.Errorf("the write carried %s, want the one warm reduction, adopted", st.AdvanceTally)
	}
}

// TestColdBuildRacingAWriteIsNotCached: a cold build at l0, parked on its
// evaluation probe while a write that changes what it reads commits, is on a
// snapshot the write supersedes and not among the reductions the write
// advances. Its answer must not be served from the cache afterwards, whichever
// lands first: its Put after the write's invalidation is below the latest
// epoch and refused; an entry Put before it is of a clearance the write did
// not advance, and dropped.
func TestColdBuildRacingAWriteIsNotCached(t *testing.T) {
	ctx := context.Background()
	q, fact := "l0[emp(K: salary -C-> V)]", "l0[emp(zed: salary -l0-> low)]."
	for _, putFirst := range []bool{false, true} {
		var park atomic.Bool
		parked, release := make(chan struct{}), make(chan struct{})
		s := New(Config{Limits: resource.Limits{Probe: func(resource.Event, int64) error {
			if park.CompareAndSwap(true, false) {
				parked <- struct{}{}
				<-release
			}
			return nil
		}}})
		if err := s.Load("test", precisionProgram); err != nil {
			t.Fatal(err)
		}
		prog, err := s.program("test")
		if err != nil {
			t.Fatal(err)
		}
		reader, writer := openSess(t, s, "l0", ""), openSess(t, s, "l1", "")
		park.Store(true)
		built := make(chan *QueryResponse, 1)
		go func() {
			resp, err := query(ctx, s, reader, QueryRequest{Query: q})
			if err != nil {
				t.Error(err)
			}
			built <- resp
		}()
		<-parked
		var raced *QueryResponse
		if putFirst {
			// The update's last two steps, the swap and the cache's share of
			// the write, with the build's Put between them.
			prog.cache = nil
			epoch, _, inv, err := prog.update(ctx, fact, writer.Clearance, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			close(release)
			raced = <-built
			prog.cache = s.cache
			s.cache.Invalidate("test", epoch, inv.changed)
		} else {
			runUpdate(t, s, writer, fact, false)
			close(release)
			raced = <-built
		}
		if raced == nil || len(raced.Answers) != 1 {
			t.Fatalf("putFirst=%v: the parked build answered %+v, want the one pre-write row", putFirst, raced)
		}
		if resp := runQuery(t, s, reader, q); resp.Cached || len(resp.Answers) != 2 {
			t.Errorf("putFirst=%v: after the write: cached=%v answers=%v", putFirst, resp.Cached, resp.Answers)
		}
	}
}

// TestNewPredicateWriteInvalidatesBeliefQueries: the first fact of a
// predicate Σ never mentioned brings its Figure 12 belief axioms, as added
// rules, and the belief relations they fill are among what the advance
// reports changed, with their tuples — so the cached empty belief answer of
// a joined query goes, and so does the next one a later fact of the predicate
// changes, while the single-goal query's is patched to a cold server's
// answers both times.
func TestNewPredicateWriteInvalidatesBeliefQueries(t *testing.T) {
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "opt")
	single := "L[badge(K: colour -C-> V)]"
	runUpdate(t, s, sess, "l0[emp(kim: salary -l0-> low)].", false)
	for _, q := range []string{single, joined(single)} {
		if resp := runQuery(t, s, sess, q); len(resp.Answers) != 0 {
			t.Fatalf("badge answers before any badge fact: %v", resp.Answers)
		}
		if !runQuery(t, s, sess, q).Cached {
			t.Fatal("prime query missed")
		}
	}
	runUpdate(t, s, sess, "l0[badge(kim: colour -l0-> red)].", false)
	resp := runQuery(t, s, sess, joined(single))
	if resp.Cached || len(resp.Answers) != 2 { // believed at l0 and, optimistically, at l1
		t.Fatalf("after the first badge fact: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
	if resp := coldEqual(t, s, sess, single); !resp.Cached || len(resp.Answers) != 2 {
		t.Fatalf("after the first badge fact, the single goal: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
	runUpdate(t, s, sess, "l1[badge(lee: colour -l1-> blue)].", false)
	if resp := runQuery(t, s, sess, joined(single)); resp.Cached || len(resp.Answers) != 3 {
		t.Fatalf("after the second badge fact: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
	if resp := coldEqual(t, s, sess, single); !resp.Cached || len(resp.Answers) != 3 {
		t.Fatalf("after the second badge fact, the single goal: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
}

// TestRetractMatchesStructurally pins retract's equality: a stored clause
// goes exactly when it renders like a retracted one — whatever the
// whitespace, quoting or position it was written with — every copy of it,
// and nothing that differs in any rendered field.
func TestRetractMatchesStructurally(t *testing.T) {
	parse := func(src string) []multilog.Clause {
		db, err := multilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return db.Sigma
	}
	stored := parse(`
		l0[emp(alice: salary -l0-> low)].
		l0[emp(alice: salary -l0-> mid)].
		l0[emp(alice: salary -l0-> low)].
		l1[emp(alice: salary -l0-> low)].
		l0[emp(alice: bonus -l0-> low)].
		l0[emp('alice': salary   -l0->   low)] :- l0[emp(bob: salary -l0-> low)].
		l1[payroll(K: cost -l1-> V)] :- l0[emp(K: salary -C-> V)] << opt.
		l1[payroll(K: cost -l1-> V)] :- l0[emp(K: salary -C-> V)] << cau.
	`)
	del := parse(`
		l0[emp( 'alice' : salary -l0-> low )].
		l1[payroll(K: cost -l1-> V)] :- l0[emp(K: salary -C-> V)] << opt.
		l0[emp(nobody: salary -l0-> low)].
	`)
	var want, wantRemoved []string
	gone := map[string]bool{}
	for _, c := range del {
		gone[c.String()] = true
	}
	for _, c := range stored {
		if gone[c.String()] {
			wantRemoved = append(wantRemoved, c.String())
		} else {
			want = append(want, c.String())
		}
	}
	next, removed, err := multilog.NewVersion(&multilog.Database{Sigma: stored}).Write(nil, del)
	if err != nil {
		t.Fatal(err)
	}
	render := func(cs []multilog.Clause) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.String())
		}
		return out
	}
	if got := render(next.Database().Sigma); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v\nwant %v", got, want)
	}
	if got := render(removed); !reflect.DeepEqual(got, wantRemoved) || len(removed) != 3 {
		t.Fatalf("removed %v\nwant %v", got, wantRemoved)
	}
}

// TestRetractUnderRecursionMatchesColdStart: a retracted Π fact whose tuple
// fed the very cycle that derives it back is gone from the warm daemon's
// answers, as from a cold daemon's on the written program — on the write that
// adopts the compiled model and on one to an engine already there.
func TestRetractUnderRecursionMatchesColdStart(t *testing.T) {
	s := New(Config{})
	if err := s.Load("test", `
		level(l0).
		p(X) :- q(X).
		q(X) :- p(X).
		p(a). p(b).
	`); err != nil {
		t.Fatal(err)
	}
	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	sess := openSess(t, s, "l0", "")
	answers := func(s *Server, sess *Session) [][]map[string]string {
		return [][]map[string]string{runQuery(t, s, sess, "p(X)").Answers, runQuery(t, s, sess, "q(X)").Answers}
	}
	if got := answers(s, sess); len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("warm-up answers: %v", got)
	}
	for i, fact := range []string{"p(a).", "p(b)."} {
		if up := runUpdate(t, s, sess, fact, true); up.Changed != 1 {
			t.Fatalf("retract %s changed %d clauses, want 1", fact, up.Changed)
		}
		if st := s.Stats().Databases["test"]; st.AdvanceIncremental != int64(i+1) || st.AdvanceAdopted != 1 || len(st.AdvanceDropped) != 0 {
			t.Fatalf("retract %s: %s, want %d incremental of which 1 adopted", fact, st.AdvanceTally, i+1)
		}
		cold := New(Config{})
		if err := cold.Load("test", prog.current().db.Database().String()); err != nil {
			t.Fatal(err)
		}
		got, want := answers(s, sess), answers(cold, openSess(t, cold, "l0", ""))
		if !reflect.DeepEqual(got, want) || len(got[0]) != 1-i {
			t.Errorf("after retracting %s the warm daemon answers %v, a cold one %v", fact, got, want)
		}
	}
}

// TestReplacedProgramLeavesTheCacheAlone: a write that lands on a program a
// load has replaced — one that looked the program up before the load — does
// not reach the cache, whose entries are the new program's: its delta
// would patch them with tuples the new program does not hold.
func TestReplacedProgramLeavesTheCacheAlone(t *testing.T) {
	s := newIncServer(t, Config{})
	sess, q := openSess(t, s, "l1", ""), "l0[emp(K: salary -C-> V)]"
	runQuery(t, s, sess, q) // a warm reduction for the old program's write to advance
	old, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load("test", precisionProgram); err != nil {
		t.Fatal(err)
	}
	want := runQuery(t, s, sess, q)
	if _, _, _, err := old.update(context.Background(), "l0[emp(zed: salary -l0-> low)].", "l1", false, nil); err != nil {
		t.Fatal(err)
	}
	if got := coldEqual(t, s, sess, q); !got.Cached || !reflect.DeepEqual(got.Answers, want.Answers) {
		t.Errorf("after a write to the replaced program: cached=%v answers=%v, want the cached %v", got.Cached, got.Answers, want.Answers)
	}
}
