package server

import (
	"context"
	"errors"
	"reflect"
	"testing"

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
	resp, err := s.Query(context.Background(), sess, QueryRequest{Query: q})
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
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

// TestCachePrecision pins the per-predicate invalidation contract: a write
// touching predicate p evicts every cached entry that depends on p (directly
// or through rules) and no entry independent of p. Rule writes evict
// everything.
func TestCachePrecision(t *testing.T) {
	queries := []string{
		"l0[emp(K: salary -C-> V)]",
		"l0[dept(K: head -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
	}
	cases := []struct {
		name        string
		clauses     string
		retract     bool
		incremental bool
		evicted     []bool // parallel to queries
	}{
		{
			name:        "dept write leaves emp and payroll cached",
			clauses:     "l0[dept(sales: head -l0-> bob)].",
			incremental: true,
			evicted:     []bool{false, true, false},
		},
		{
			name:        "emp write evicts emp and the derived payroll",
			clauses:     "l0[emp(carol: salary -l0-> low)].",
			incremental: true,
			evicted:     []bool{true, false, true},
		},
		{
			name:        "retract is as precise as assert",
			clauses:     "l0[dept(sales: head -l0-> bob)].",
			retract:     true,
			incremental: true,
			evicted:     []bool{false, true, false},
		},
		{
			name:        "rule write evicts everything",
			clauses:     "l1[extra(K: x -l1-> V)] :- l0[dept(K: head -C-> V)].",
			incremental: false,
			evicted:     []bool{true, true, true},
		},
	}
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Prime: miss then hit for every query.
			for _, q := range queries {
				runQuery(t, s, sess, q)
				if got := runQuery(t, s, sess, q); !got.Cached {
					t.Fatalf("prime %q: second query missed the cache", q)
				}
			}
			up := runUpdate(t, s, sess, tc.clauses, tc.retract)
			if up.Changed == 0 {
				t.Fatalf("update %q changed nothing", tc.clauses)
			}
			if up.Incremental != tc.incremental {
				t.Errorf("Incremental = %v, want %v", up.Incremental, tc.incremental)
			}
			if tc.incremental && len(up.ChangedPreds) == 0 {
				t.Errorf("incremental update reported no changed predicates")
			}
			for i, q := range queries {
				resp := runQuery(t, s, sess, q)
				if tc.evicted[i] && resp.Cached {
					t.Errorf("query %q served a stale cached answer after %q", q, tc.clauses)
				}
				if !tc.evicted[i] && !resp.Cached {
					t.Errorf("query %q was evicted by the independent write %q", q, tc.clauses)
				}
			}
		})
	}
}

// TestCachePrecisionObservesWrites double-checks precision is not staleness:
// after a write, the dependent query's fresh answer reflects it.
func TestCachePrecisionObservesWrites(t *testing.T) {
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "")
	q := "l0[dept(K: head -C-> V)]"
	before := runQuery(t, s, sess, q)
	runQuery(t, s, sess, q) // cached
	runUpdate(t, s, sess, "l0[dept(sales: head -l0-> bob)].", false)
	after := runQuery(t, s, sess, q)
	if after.Cached {
		t.Fatal("dependent entry survived the write")
	}
	if len(after.Answers) != len(before.Answers)+1 {
		t.Fatalf("write not visible: %d answers before, %d after", len(before.Answers), len(after.Answers))
	}
	// And the grown answer set is itself cached again.
	if got := runQuery(t, s, sess, q); !got.Cached || len(got.Answers) != len(after.Answers) {
		t.Fatalf("post-write answer not re-cached correctly (cached=%v, %d answers)", got.Cached, len(got.Answers))
	}
}

// TestServerAssertRetractMetamorphic is the write-path no-op property end to
// end, for a fact, a Σ rule and a Π rule alike: asserting the clause and
// retracting it leaves the database source byte-identical, every probe
// query's answers byte-identical across all three belief modes and every
// clearance, and every warm reduction's support counts identical; and in
// between, the answers are those of a server cold-started on the program the
// write produced.
func TestServerAssertRetractMetamorphic(t *testing.T) {
	probes := []string{
		"L[emp(K: salary -C-> V)]",
		"l0[emp(K: salary -C-> V)]",
		"l1[payroll(K: cost -C-> V)]",
		"l0[dept(K: head -C-> V)]",
		"L[bonus(K: due -C-> V)]",
		"senior(X)",
	}
	type view struct{ clearance, mode string }
	var views []view
	for _, cl := range []string{"l0", "l1"} {
		for _, m := range []string{"fir", "opt", "cau"} {
			views = append(views, view{cl, m})
		}
	}
	collect := func(s *Server) map[string][][]map[string]string {
		out := map[string][][]map[string]string{}
		for _, v := range views {
			sess := openSess(t, s, v.clearance, v.mode)
			key := v.clearance + "/" + v.mode
			for _, q := range probes {
				resp := runQuery(t, s, sess, q)
				out[key] = append(out[key], resp.Answers)
			}
		}
		return out
	}
	for _, clause := range []string{
		"l1[emp(dave: salary -l1-> mid)].",
		"l1[bonus(K: due -l1-> V)] :- L[emp(K: salary -C-> V)] << cau.",
		"senior(X) :- level(X), order(Y, X).",
	} {
		s := newIncServer(t, Config{})
		prog, err := s.program("test")
		if err != nil {
			t.Fatal(err)
		}
		dbSource := func() string { return prog.current().db.String() }
		counts := func() map[string]any {
			snap, out := prog.current(), map[string]any{}
			snap.redMu.RLock()
			defer snap.redMu.RUnlock()
			for u, red := range snap.reductions {
				out[string(u)] = red.Counts()
			}
			return out
		}
		writer := openSess(t, s, "l1", "")
		// One write first, so the clearances the probes warm are held by the
		// counting engine and not by a compiled model, which has no counts.
		collect(s)
		runUpdate(t, s, writer, "l0[dept(ops: head -l0-> bob)].", false)
		baseSrc, baseAnswers, baseCounts := dbSource(), collect(s), counts()
		if len(baseCounts) != 2 {
			t.Fatalf("%s: %d warm reductions with counts, want 2", clause, len(baseCounts))
		}

		if up := runUpdate(t, s, writer, clause, false); up.Changed != 1 {
			t.Fatalf("%s: assert changed %d clauses, want 1", clause, up.Changed)
		}
		midAnswers := collect(s)
		if reflect.DeepEqual(baseAnswers, midAnswers) {
			t.Fatalf("%s: assert was not observable through the probes", clause)
		}
		cold := New(Config{})
		if err := cold.Load("test", dbSource()); err != nil {
			t.Fatalf("%s: cold start on the written program: %v", clause, err)
		}
		if got := collect(cold); !reflect.DeepEqual(got, midAnswers) {
			t.Errorf("%s: answers after the write differ from a cold start on the same program\ngot:  %v\nwant: %v", clause, midAnswers, got)
		}
		if up := runUpdate(t, s, writer, clause, true); up.Changed != 1 {
			t.Fatalf("%s: retract changed %d clauses, want 1", clause, up.Changed)
		}

		if got := dbSource(); got != baseSrc {
			t.Errorf("%s: assert-then-retract changed the database source\ngot:\n%s\nwant:\n%s", clause, got, baseSrc)
		}
		if got := collect(s); !reflect.DeepEqual(got, baseAnswers) {
			t.Errorf("%s: assert-then-retract changed probe answers across modes/clearances", clause)
		}
		// bonus is new to Σ: its inert axioms stay behind and derive nothing,
		// so the counts are those of before all the same.
		if got := counts(); !reflect.DeepEqual(got, baseCounts) {
			t.Errorf("%s: assert-then-retract changed support counts", clause)
		}
		if st := s.Stats().Databases["test"]; len(st.AdvanceFull) != 1 || st.AdvanceFull["old-not-incremental"] != 2 {
			t.Errorf("%s: a write rebuilt a warm reduction: %+v", clause, st)
		}
	}
}

// TestUpdateAdvancesPreparedReductions pins the model-reuse half of the
// write path: a fact write must carry the warm per-clearance reductions into
// the new snapshot (advanced incrementally), not discard them.
func TestUpdateAdvancesPreparedReductions(t *testing.T) {
	s := newIncServer(t, Config{})
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
	if n := warm(); n != 2 {
		t.Fatalf("expected 2 warm reductions before the write, got %d", n)
	}
	writer := openSess(t, s, "l1", "")
	runUpdate(t, s, writer, "l0[emp(erin: salary -l0-> low)].", false)
	if n := warm(); n != 2 {
		t.Fatalf("fact write dropped warm reductions: %d remain, want 2", n)
	}
	// The advanced models must answer correctly (the new fact is visible).
	resp := runQuery(t, s, openSess(t, s, "l0", ""), "l0[emp(erin: salary -C-> V)]")
	if len(resp.Answers) != 1 {
		t.Fatalf("advanced reduction lost the written fact: %d answers", len(resp.Answers))
	}
}

// TestCachePrecisionAcrossClearances guards the conservative side: the
// invalidation set is clearance-independent, so a write by one session
// evicts dependent entries cached for other clearances too.
func TestCachePrecisionAcrossClearances(t *testing.T) {
	s := newIncServer(t, Config{})
	low := openSess(t, s, "l0", "")
	high := openSess(t, s, "l1", "")
	q := "l0[emp(K: salary -C-> V)]"
	for _, sess := range []*Session{low, high} {
		runQuery(t, s, sess, q)
		if got := runQuery(t, s, sess, q); !got.Cached {
			t.Fatal("prime query missed")
		}
	}
	runUpdate(t, s, high, "l0[emp(gail: salary -l0-> low)].", false)
	for i, sess := range []*Session{low, high} {
		resp := runQuery(t, s, sess, q)
		if resp.Cached {
			t.Errorf("session %d served stale answers after a cross-clearance write", i)
		}
		found := false
		for _, a := range resp.Answers {
			if a["K"] == "gail" {
				found = true
			}
		}
		if !found {
			t.Errorf("session %d does not see the written fact: %v", i, resp.Answers)
		}
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
	if st := s.Stats().Databases["test"]; st.AdvanceIncremental != 0 || len(st.AdvanceFull) != 0 {
		t.Fatalf("a cancelled write was counted as an advance: %+v", st)
	}

	up := runUpdate(t, s, sess, fact, false)
	if up.Epoch != before.epoch+1 || s.Stats().Durability.Appended != appended+1 {
		t.Fatalf("the write after a cancelled one: epoch %d (want %d), WAL appends %d (want %d)",
			up.Epoch, before.epoch+1, s.Stats().Durability.Appended, appended+1)
	}
}

// TestAdvanceReasonsOnStats: /v1/stats says, per database, how committed
// writes carried the warm reductions forward — patched, or rebuilt and why.
func TestAdvanceReasonsOnStats(t *testing.T) {
	s := newIncServer(t, Config{})
	writer := openSess(t, s, "l1", "")
	for _, cl := range []string{"l0", "l1"} {
		runQuery(t, s, openSess(t, s, cl, ""), "l0[emp(K: salary -C-> V)]")
	}
	want := DBStats{}
	check := func(step string) {
		t.Helper()
		got := s.Stats().Databases["test"]
		if got.AdvanceIncremental != want.AdvanceIncremental || !reflect.DeepEqual(got.AdvanceFull, want.AdvanceFull) {
			t.Fatalf("%s: advance_incremental %d advance_full %v, want %d %v",
				step, got.AdvanceIncremental, got.AdvanceFull, want.AdvanceIncremental, want.AdvanceFull)
		}
	}
	check("before any write")

	// The first queries prepared both clearances through the compiled
	// engine, which keeps no support counts: the first write rebuilds.
	runUpdate(t, s, writer, "l0[emp(ivy: salary -l0-> low)].", false)
	want.AdvanceFull = map[string]int64{"old-not-incremental": 2}
	check("first fact write")

	runUpdate(t, s, writer, "l0[emp(jon: salary -l0-> low)].", false)
	runUpdate(t, s, writer, "l0[emp(jon: salary -l0-> low)].", true)
	want.AdvanceIncremental = 4
	check("fact assert + retract")

	// Neither a predicate's first mention (its belief axioms come along as
	// added rules) nor a rule write, Σ or Π, assert or retract, is a rebuild.
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
		want.AdvanceIncremental += 2
		check(w.step)
	}

	// A retract that matches nothing is no write at all.
	runUpdate(t, s, writer, "l0[emp(nobody: salary -l0-> low)].", true)
	check("no-op retract")
}

// TestNewPredicateWriteInvalidatesBeliefQueries: the first fact of a
// predicate Σ never mentioned brings its Figure 12 belief axioms, which the
// carried impact graph has no edges for — so the write invalidates
// everything and the graph is rebuilt, instead of leaving a cached empty
// belief answer behind.
func TestNewPredicateWriteInvalidatesBeliefQueries(t *testing.T) {
	s := newIncServer(t, Config{})
	sess := openSess(t, s, "l1", "opt")
	q := "L[badge(K: colour -C-> V)]"
	runUpdate(t, s, sess, "l0[emp(kim: salary -l0-> low)].", false) // builds the impact graph
	if resp := runQuery(t, s, sess, q); len(resp.Answers) != 0 {
		t.Fatalf("badge answers before any badge fact: %v", resp.Answers)
	}
	if !runQuery(t, s, sess, q).Cached {
		t.Fatal("prime query missed")
	}
	up := runUpdate(t, s, sess, "l0[badge(kim: colour -l0-> red)].", false)
	if up.Incremental {
		t.Fatalf("a new predicate's first fact was bounded per predicate: %+v", up)
	}
	resp := runQuery(t, s, sess, q)
	if resp.Cached || len(resp.Answers) != 2 { // believed at l0 and, optimistically, at l1
		t.Fatalf("after the first badge fact: cached=%v answers=%v", resp.Cached, resp.Answers)
	}
	// The rebuilt graph knows the predicate: its next fact is bounded again,
	// and still reaches the belief query.
	up = runUpdate(t, s, sess, "l1[badge(lee: colour -l1-> blue)].", false)
	if !up.Incremental {
		t.Fatalf("second badge fact invalidated everything: %+v", up)
	}
	if resp := runQuery(t, s, sess, q); resp.Cached || len(resp.Answers) != 3 {
		t.Fatalf("after the second badge fact: cached=%v answers=%v", resp.Cached, resp.Answers)
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
	removed := retractClauses(&stored, del)
	render := func(cs []multilog.Clause) []string {
		var out []string
		for _, c := range cs {
			out = append(out, c.String())
		}
		return out
	}
	if got := render(stored); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v\nwant %v", got, want)
	}
	if got := render(removed); !reflect.DeepEqual(got, wantRemoved) || len(removed) != 3 {
		t.Fatalf("removed %v\nwant %v", got, wantRemoved)
	}
}
