package multilog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
)

// mustGoals parses a query or fails the test.
func mustGoals(t *testing.T, src string) Query {
	t.Helper()
	goals, err := ParseGoals(src)
	if err != nil {
		t.Fatalf("parse goals %q: %v", src, err)
	}
	return goals
}

// mustSigmaFact parses one Σ fact clause.
func mustSigmaFact(t *testing.T, src string) Clause {
	t.Helper()
	db, err := Parse(src)
	if err != nil {
		t.Fatalf("parse fact %q: %v", src, err)
	}
	if len(db.Sigma) != 1 {
		t.Fatalf("want 1 Σ clause in %q, got %d", src, len(db.Sigma))
	}
	return db.Sigma[0]
}

// withoutClause returns a clone of db with one Σ clause (by canonical
// rendering) removed, mirroring the server's retract path.
func withoutClause(db *Database, c Clause) *Database {
	next := db.Clone()
	key := c.String()
	kept := next.Sigma[:0]
	for _, sc := range next.Sigma {
		if sc.String() == key {
			key = "" // remove one occurrence only
			continue
		}
		kept = append(kept, sc)
	}
	next.Sigma = kept
	return next
}

// modelString renders a reduction's prepared model canonically.
func modelString(t *testing.T, r *Reduction) string {
	t.Helper()
	m, err := r.Model()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return m.String()
}

// advance reduces next at user and advances it from old, failing on error.
func advance(t *testing.T, next *Database, old *Reduction) (*Reduction, DeltaReport) {
	t.Helper()
	red, err := Reduce(next, old.User)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	rep, err := red.AdvanceFrom(context.Background(), old, resource.Limits{})
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	return red, rep
}

// freshPrepared reduces and fully prepares db at user.
func freshPrepared(t *testing.T, db *Database, user lattice.Label) *Reduction {
	t.Helper()
	red, err := Reduce(db, user)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if err := red.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return red
}

// changedPredsBetween diffs two prepared models predicate-by-predicate,
// comparing fact sets (removal perturbs stored order).
func changedPredsBetween(a, b *Reduction) []string {
	am, _ := a.Model()
	bm, _ := b.Model()
	render := func(m *datalog.Store, pred string) string {
		var lines []string
		for _, f := range m.Facts(pred) {
			lines = append(lines, f.Key())
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	set := map[string]bool{}
	for _, p := range am.Preds() {
		set[p] = true
	}
	for _, p := range bm.Preds() {
		set[p] = true
	}
	var out []string
	for p := range set {
		if render(am, p) != render(bm, p) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// randomFact builds a Σ fact in the shape randomDatabase uses, so asserts
// stay admissible.
func randomFact(r *rand.Rand, levels []lattice.Label) string {
	lvl := levels[r.Intn(len(levels))]
	key := []string{"k1", "k2", "k3"}[r.Intn(3)]
	attr := []string{"a", "b"}[r.Intn(2)]
	val := []string{"v1", "v2", "v3"}[r.Intn(3)]
	return fmt.Sprintf("%s[p%d(%s: %s -%s-> %s)].", lvl, r.Intn(2), key, attr, lvl, val)
}

// TestAdvanceFromMatchesFreshPrepare drives randomized write sequences over
// randomized databases and checks, at every step and clearance, that the
// incrementally advanced reduction is byte-identical (model and derivation
// counts) to a reduction prepared from scratch on the same database.
func TestAdvanceFromMatchesFreshPrepare(t *testing.T) {
	seeds := 12
	steps := 8
	if testing.Short() {
		seeds, steps = 4, 4
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		db, levels := randomDatabase(r)
		user := levels[r.Intn(len(levels))]
		cur := freshPrepared(t, db, user)
		curDB := db
		for step := 0; step < steps; step++ {
			fact := mustSigmaFact(t, randomFact(r, levels))
			var next *Database
			if r.Intn(3) == 0 {
				next = withoutClause(curDB, fact)
			} else {
				next = curDB.Clone()
				if err := next.AddClause(fact); err != nil {
					t.Fatalf("seed %d step %d: add: %v", seed, step, err)
				}
			}
			if next.CheckAdmissible() != nil {
				continue // the write would be rejected upstream; skip
			}
			red, rep := advance(t, next, cur)
			if rep.Reason != "" {
				t.Fatalf("seed %d step %d: expected incremental advance", seed, step)
			}
			fresh := freshPrepared(t, next, user)
			if got, want := modelString(t, red), modelString(t, fresh); got != want {
				t.Fatalf("seed %d step %d: advanced model diverges from fresh prepare\nfact: %s\ngot:\n%s\nwant:\n%s",
					seed, step, fact, got, want)
			}
			if !reflect.DeepEqual(red.Counts(), fresh.Counts()) {
				t.Fatalf("seed %d step %d: base counts diverge (fact %s)", seed, step, fact)
			}
			if want := changedPredsBetween(cur, red); !reflect.DeepEqual(rep.ChangedPreds, want) &&
				!(len(rep.ChangedPreds) == 0 && len(want) == 0) {
				t.Fatalf("seed %d step %d: ChangedPreds = %v, want %v", seed, step, rep.ChangedPreds, want)
			}
			cur, curDB = red, next
		}
	}
}

// TestAdvanceAssertRetractNoop is the metamorphic write-path property at the
// reduction layer: asserting a fresh fact and then retracting it restores a
// byte-identical model and identical base counts, at every clearance,
// and the belief sets of all three modes are unchanged.
func TestAdvanceAssertRetractNoop(t *testing.T) {
	db, err := Parse(`
		level(l0). level(l1). level(l2). order(l0, l1). order(l1, l2).
		l0[p(k1: a -l0-> v1)].
		l1[p(k1: a -l1-> v2)].
		l0[q(k2: b -l0-> w1)].
		l2[r(K: c -l2-> V)] :- l0[p(K: a -C-> V)] << cau.
	`)
	if err != nil {
		t.Fatal(err)
	}
	fact := mustSigmaFact(t, "l1[p(k3: a -l1-> v9)].")
	for _, user := range []lattice.Label{"l0", "l1", "l2"} {
		base := freshPrepared(t, db, user)
		baseModel := modelString(t, base)
		baseCounts := base.Counts()
		beliefs := func(r *Reduction) string {
			var b strings.Builder
			for _, m := range []Mode{ModeFir, ModeOpt, ModeCau} {
				for _, l := range []lattice.Label{"l0", "l1", "l2"} {
					if !r.Poset.Dominates(user, l) {
						continue
					}
					facts, err := r.BeliefFacts(l, m)
					if err != nil {
						t.Fatalf("beliefs %s %s: %v", l, m, err)
					}
					for _, f := range facts {
						fmt.Fprintf(&b, "%s<<%s %s\n", l, m, f.MAtom())
					}
				}
			}
			return b.String()
		}
		baseBeliefs := beliefs(base)

		withDB := db.Clone()
		if err := withDB.AddClause(fact); err != nil {
			t.Fatal(err)
		}
		with, rep := advance(t, withDB, base)
		if rep.Reason != "" {
			t.Fatalf("user %s: assert: expected incremental advance", user)
		}
		if user != "l0" && rep.Added == 0 {
			t.Fatalf("user %s: assert of a visible fact reported no additions", user)
		}

		backDB := withoutClause(withDB, fact)
		back, rep2 := advance(t, backDB, with)
		if rep2.Reason != "" {
			t.Fatalf("user %s: retract: expected incremental advance", user)
		}
		if got := modelString(t, back); got != baseModel {
			t.Errorf("user %s: assert-then-retract is not a model no-op\ngot:\n%s\nwant:\n%s", user, got, baseModel)
		}
		if !reflect.DeepEqual(back.Counts(), baseCounts) {
			t.Errorf("user %s: assert-then-retract changed base counts", user)
		}
		if got := beliefs(back); got != baseBeliefs {
			t.Errorf("user %s: belief sets changed across assert-then-retract\ngot:\n%s\nwant:\n%s", user, got, baseBeliefs)
		}
	}
}

// TestAdvanceRuleWriteAndFallback: a written rule is a delta like a written
// fact; an old reduction with no engine to patch is a rebuild, and says so.
func TestAdvanceRuleWriteAndFallback(t *testing.T) {
	db, err := Parse(`
		level(l0). level(l1). order(l0, l1).
		l0[p(k1: a -l0-> v1)].
	`)
	if err != nil {
		t.Fatal(err)
	}
	base := freshPrepared(t, db, "l1")
	next := db.Clone()
	rule := mustSigmaFact(t, "l1[q(K: b -l1-> V)] :- l0[p(K: a -C-> V)] << opt.")
	if err := next.AddClause(rule); err != nil {
		t.Fatal(err)
	}
	red, rep := advance(t, next, base)
	if rep.Reason != "" || rep.RulesAdded == 0 {
		t.Fatalf("a rule write was not applied incrementally: %+v", rep)
	}
	fresh := freshPrepared(t, next, "l1")
	if got, want := modelString(t, red), modelString(t, fresh); got != want {
		t.Fatalf("advanced model diverges:\n%s\nwant:\n%s", got, want)
	}
	// Unprepared old reduction: also a full prepare.
	unprepared, err := Reduce(db, "l1")
	if err != nil {
		t.Fatal(err)
	}
	red2, err := Reduce(db, "l1")
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := red2.AdvanceFrom(context.Background(), unprepared, resource.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reason == "" {
		t.Fatal("advancing from an unprepared reduction must fall back")
	}
}

// TestQueryDeps pins what the server's cache keys on: QueryDeps names exactly
// the relations match reads — each goal's target at the levels the user
// dominates — and an answer changes across a write only when the write's
// ChangedPreds at that clearance meet them.
func TestQueryDeps(t *testing.T) {
	db, err := Parse(`
		level(l0). level(l1). order(l0, l1).
		l0[p(k1: a -l0-> v1)].
		l0[q(k2: b -l0-> w1)].
		l1[d(K: c -l1-> V)] :- l0[p(K: a -C-> V)] << opt.
		h(k1).
	`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		user  lattice.Label
		query string
		want  []string
	}{
		{"l1", "l0[p(K: a -C-> V)]", []string{"mlrel_p_l0"}},
		{"l1", "l1[p(K: a -C-> V)] << cau", []string{"mlbel_p_l1_cau"}},
		{"l1", "l1[d(K: c -C-> V)]", []string{"mlrel_d_l1"}},
		// A variable level fans out over the levels the user dominates.
		{"l1", "L[q(K: b -C-> V)]", []string{"mlrel_q_l0", "mlrel_q_l1"}},
		{"l0", "L[q(K: b -C-> V)] << opt", []string{"mlbel_q_l0_opt"}},
		// A level the user does not dominate, or the lattice lacks, is read
		// by nothing; builtins read no relation; duplicates collapse.
		{"l0", "l1[d(K: c -C-> V)]", nil},
		{"l1", "l7[p(K: a -C-> V)]", nil},
		{"l1", "h(K), K != k2, l0[p(K: a -C-> V)], l0[p(K: a -C-> W)]", []string{"h", "mlrel_p_l0"}},
		{"l1", "l0[p(K: a -C-> V)] << skeptical", []string{UserBelPred}},
	}
	for _, tc := range cases {
		red := freshPrepared(t, db, tc.user)
		if got := red.QueryDeps(mustGoals(t, tc.query)); !reflect.DeepEqual(got, tc.want) && len(got)+len(tc.want) > 0 {
			t.Errorf("at %s QueryDeps(%s) = %v, want %v", tc.user, tc.query, got, tc.want)
		}
	}

	// The contract: across facts and rules written at both levels, a query
	// whose answers changed reads a relation the advance reports changed.
	queries := []string{
		"L[p(K: a -C-> V)]", "l0[p(K: a -C-> V)] << cau", "L[d(K: c -C-> V)] << opt",
		"L[q(K: b -C-> V)] << fir", "h(K)",
	}
	writes := []string{
		"l0[p(k3: a -l0-> v3)].",
		"l1[p(k1: a -l1-> v9)].",
		"l0[q(k4: b -l0-> w4)].",
		"l1[q(K: b -l1-> V)] :- l0[p(K: a -C-> V)] << fir.",
		"h(K) :- level(K).",
	}
	moved := 0
	for _, user := range []lattice.Label{"l0", "l1"} {
		cur, curDB := freshPrepared(t, db, user), db
		for _, w := range writes {
			delta, err := Parse(w)
			if err != nil {
				t.Fatal(err)
			}
			added := append(delta.Sigma, delta.Pi...)
			next := curDB.Clone()
			for _, c := range added {
				if err := next.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
			red, rep, err := cur.Advance(context.Background(), next, added, nil, resource.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			changed := map[string]bool{}
			for _, p := range rep.ChangedPreds {
				changed[p] = true
			}
			for _, q := range queries {
				goals := mustGoals(t, q)
				before, _, err1 := cur.QueryPrepared(context.Background(), goals, resource.Limits{})
				after, _, err2 := red.QueryPrepared(context.Background(), goals, resource.Limits{})
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if fmt.Sprint(before) == fmt.Sprint(after) {
					continue
				}
				moved++
				if deps := red.QueryDeps(goals); !slices.ContainsFunc(deps, func(d string) bool { return changed[d] }) {
					t.Errorf("at %s, %s changed the answers to %s, but QueryDeps %v misses ChangedPreds %v",
						user, w, q, deps, rep.ChangedPreds)
				}
			}
			cur, curDB = red, next
		}
	}
	if moved < 10 {
		t.Fatalf("only %d answer sets moved across the writes", moved)
	}
}

// TestWriteImpact pins the clearance-independent reverse closure used to
// invalidate cache entries conservatively.
func TestWriteImpact(t *testing.T) {
	db, err := Parse(`
		level(l0). level(l1). order(l0, l1).
		l0[p(k1: a -l0-> v1)].
		l0[q(k2: b -l0-> w1)].
		l1[d(K: c -l1-> V)] :- l0[p(K: a -C-> V)] << opt.
	`)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := NewImpactGraph(db)
	if err != nil {
		t.Fatal(err)
	}
	impact := func(src string) map[string]bool {
		t.Helper()
		preds, err := graph.Impact([]Clause{mustSigmaFact(t, src)})
		if err != nil {
			t.Fatalf("impact %q: %v", src, err)
		}
		set := map[string]bool{}
		for _, p := range preds {
			set[p] = true
		}
		return set
	}

	pImpact := impact("l0[p(k9: a -l0-> v9)].")
	for _, want := range []string{
		"mlrel_p_l0",      // the written relation itself
		"mlbel_p_l0_fir",  // beliefs at the written level
		"mlbel_p_l1_opt",  // optimistic beliefs above inherit it
		"mlbel_p_l1_cau",  // cautious beliefs above can flip
		"mlexceeded_p_l1", // the cautious auxiliary
		"mlrel_d_l1",      // the derived predicate reading p's beliefs
		"mlbel_d_l1_fir",  // and its beliefs in turn
	} {
		if !pImpact[want] {
			t.Errorf("impact of p-write missing %s (got %v)", want, pImpact)
		}
	}
	for p := range pImpact {
		if strings.Contains(p, "_q_") {
			t.Errorf("impact of p-write must not reach q, got %s", p)
		}
	}

	qImpact := impact("l0[q(k9: b -l0-> w9)].")
	for p := range qImpact {
		if strings.Contains(p, "_p_") || strings.Contains(p, "_d_") {
			t.Errorf("impact of q-write must not reach p or d, got %s", p)
		}
	}
	if !qImpact["mlrel_q_l0"] || !qImpact["mlbel_q_l1_opt"] {
		t.Errorf("impact of q-write missing q's own closure: %v", qImpact)
	}
}
