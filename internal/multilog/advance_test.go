package multilog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
)

// The program diff below is how AdvanceFrom found a write's delta before the
// write's own clauses were translated instead: reduce both databases in
// full, render every rule, and subtract the fact multisets. It stays here as
// the oracle the translated delta is checked against.

// factCount is one distinct ground fact with its multiplicity in a program.
type factCount struct {
	atom  datalog.Atom
	count int
}

// splitProgram separates a translated program into its rule multiset
// (canonical strings) and ground-fact multiset; ok is false when a fact
// clause has a non-ground head.
func splitProgram(p *datalog.Program) (rules []string, facts map[string]factCount, ok bool) {
	facts = map[string]factCount{}
	for _, c := range p.Clauses {
		if !c.IsFact() {
			rules = append(rules, c.String())
			continue
		}
		if !c.Head.IsGround() {
			return nil, nil, false
		}
		k := c.Head.Key()
		fc := facts[k]
		fc.atom, fc.count = c.Head, fc.count+1
		facts[k] = fc
	}
	sort.Strings(rules)
	return rules, facts, true
}

// programDiff is the oracle: the fact keys to add and to delete that turn
// old's translated program into new's, or sameRules=false when their rule
// multisets differ.
func programDiff(t *testing.T, old, new *Reduction) (adds, dels []string, sameRules bool) {
	t.Helper()
	oldRules, oldFacts, ok := splitProgram(old.Program)
	newRules, newFacts, ok2 := splitProgram(new.Program)
	if !ok || !ok2 {
		t.Fatal("oracle: non-ground fact in a reduced program")
	}
	if !reflect.DeepEqual(oldRules, newRules) {
		return nil, nil, false
	}
	for k, fc := range newFacts {
		for i := oldFacts[k].count; i < fc.count; i++ {
			adds = append(adds, k)
		}
	}
	for k, fc := range oldFacts {
		for i := newFacts[k].count; i < fc.count; i++ {
			dels = append(dels, k)
		}
	}
	sort.Strings(adds)
	sort.Strings(dels)
	return adds, dels, true
}

func sortedKeys(as []datalog.Atom) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Key())
	}
	sort.Strings(out)
	return out
}

func mustReduce(t *testing.T, db *Database, user lattice.Label) *Reduction {
	t.Helper()
	red, err := Reduce(db, user)
	if err != nil {
		t.Fatalf("reduce at %s: %v", user, err)
	}
	return red
}

// sameAsFresh fails unless red's model and support counts are those of a
// reduction of db prepared from scratch.
func sameAsFresh(t *testing.T, what string, red *Reduction, db *Database, user lattice.Label) {
	t.Helper()
	fresh := freshPrepared(t, db, user)
	if got, want := modelString(t, red), modelString(t, fresh); got != want {
		t.Fatalf("%s: model diverges from a fresh prepare\ngot:\n%s\nwant:\n%s", what, got, want)
	}
	if !reflect.DeepEqual(red.Counts(), fresh.Counts()) {
		t.Fatalf("%s: support counts diverge from a fresh prepare", what)
	}
}

// TestTranslatedDeltaMatchesProgramDiff is the delta-translation invariant:
// over random databases × random fact writes × every clearance, translating
// the write's own clauses yields exactly the fact delta the full program
// diff finds, both entries (Advance with the clauses, AdvanceFrom with the
// two databases) agree with a fresh Prepare on model and counts, and the
// advanced reduction keeps serving further advances.
func TestTranslatedDeltaMatchesProgramDiff(t *testing.T) {
	seeds, steps := 20, 10
	if testing.Short() {
		seeds, steps = 6, 5
	}
	ctx := context.Background()
	writes, vanished, newPreds := 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(1400 + seed))
		db, levels := randomDatabase(r)
		cur := map[lattice.Label]*Reduction{}
		for _, u := range levels {
			cur[u] = freshPrepared(t, db, u)
		}
		for step := 0; step < steps; step++ {
			next := db.Clone()
			var added, removed []Clause
			if r.Intn(3) == 0 && len(db.Sigma) > 0 {
				// Retract a stored fact (a miss when a rule is drawn).
				victim := db.Sigma[r.Intn(len(db.Sigma))]
				if !victim.IsFact() {
					continue
				}
				kept := next.Sigma[:0]
				for _, c := range next.Sigma {
					if len(removed) == 0 && c.Equal(victim) {
						removed = append(removed, c)
						continue
					}
					kept = append(kept, c)
				}
				next.Sigma = kept
			} else {
				fact := mustSigmaFact(t, randomFact(r, levels))
				if err := next.AddClause(fact); err != nil {
					t.Fatal(err)
				}
				added = []Clause{fact}
			}
			if next.CheckAdmissible() != nil {
				continue
			}
			writes++
			for _, u := range levels {
				what := fmt.Sprintf("seed %d step %d clearance %s (+%v -%v)", seed, step, u, added, removed)
				old := cur[u]
				wantAdds, wantDels, sameRules := programDiff(t, mustReduce(t, db, u), mustReduce(t, next, u))

				adds, reason := old.translateFacts(added)
				dels, reason2 := old.translateFacts(removed)
				if reason == ReasonNewPredicate {
					// The generator drew a predicate Σ had not mentioned: the
					// oracle sees its Figure 12 axioms arrive as new rules,
					// and both entries must rebuild and say why.
					if sameRules {
						t.Fatalf("%s: new-predicate reported, but the reduced rules are unchanged", what)
					}
					red, rep, err := old.Advance(ctx, next, added, removed, resource.Limits{})
					if err != nil || rep.Incremental || rep.Reason != ReasonNewPredicate {
						t.Fatalf("%s: Advance: %+v, %v", what, rep, err)
					}
					sameAsFresh(t, what+": new predicate", red, next, u)
					viaDiff := mustReduce(t, next, u)
					if rep, err := viaDiff.AdvanceFrom(ctx, old, resource.Limits{}); err != nil || rep.Reason != ReasonNewPredicate {
						t.Fatalf("%s: AdvanceFrom: %+v, %v", what, rep, err)
					}
					newPreds++
					cur[u] = red
					continue
				}
				if reason != "" || reason2 != "" {
					t.Fatalf("%s: translation refused: %q %q", what, reason, reason2)
				}
				if sameRules {
					if got := sortedKeys(adds); !reflect.DeepEqual(got, wantAdds) {
						t.Fatalf("%s: translated adds %v, program diff %v", what, got, wantAdds)
					}
					if got := sortedKeys(dels); !reflect.DeepEqual(got, wantDels) {
						t.Fatalf("%s: translated dels %v, program diff %v", what, got, wantDels)
					}
				} else if len(removed) > 0 {
					// The retract took a predicate's last mention out of Σ,
					// and its Figure 12 axioms out of a fresh reduction. The
					// advanced engine keeps them: they derive nothing.
					vanished++
				} else if pred := added[0].Head.M.Pred; mustReduce(t, db, u).preds[pred] {
					t.Fatalf("%s: an assert of a predicate Σ mentions changed the reduced rules", what)
				} else {
					// ... until the predicate comes back, to an engine that
					// still has them: the sameAsFresh below is the check.
					vanished++
				}

				red, rep, err := old.Advance(ctx, next, added, removed, resource.Limits{})
				if err != nil || !rep.Incremental || rep.Reason != "" {
					t.Fatalf("%s: Advance: incremental=%v reason=%q err=%v", what, rep.Incremental, rep.Reason, err)
				}
				sameAsFresh(t, what+": Advance", red, next, u)
				if want := changedPredsBetween(old, red); !reflect.DeepEqual(rep.ChangedPreds, want) &&
					len(rep.ChangedPreds)+len(want) > 0 {
					t.Fatalf("%s: ChangedPreds = %v, want %v", what, rep.ChangedPreds, want)
				}

				viaDiff := mustReduce(t, next, u)
				rep2, err := viaDiff.AdvanceFrom(ctx, old, resource.Limits{})
				if err != nil || !rep2.Incremental {
					t.Fatalf("%s: AdvanceFrom: incremental=%v reason=%q err=%v", what, rep2.Incremental, rep2.Reason, err)
				}
				sameAsFresh(t, what+": AdvanceFrom", viaDiff, next, u)
				if !reflect.DeepEqual(rep2.ChangedPreds, rep.ChangedPreds) {
					t.Fatalf("%s: the two entries disagree: %v vs %v", what, rep2.ChangedPreds, rep.ChangedPreds)
				}

				// The advanced reduction's own Program is the fresh
				// reduction's: the same fact multiset and at least its rules
				// (plus the inert axioms of predicates that have vanished).
				freshRules, freshFacts, _ := splitProgram(mustReduce(t, next, u).Program)
				gotRules, gotFacts, _ := splitProgram(red.Program)
				if !reflect.DeepEqual(gotFacts, freshFacts) {
					t.Fatalf("%s: advanced Program's facts differ from a fresh reduction's", what)
				}
				have := map[string]bool{}
				for _, rule := range gotRules {
					have[rule] = true
				}
				for _, rule := range freshRules {
					if !have[rule] {
						t.Fatalf("%s: advanced Program lacks the rule %s", what, rule)
					}
				}
				// old is untouched and still what it was.
				sameAsFresh(t, what+": source after Advance", old, db, u)
				cur[u] = red
			}
			db = next
		}
	}
	if writes < seeds*steps/2 {
		t.Fatalf("only %d writes exercised", writes)
	}
	t.Logf("%d writes checked at every clearance; clearance-writes with a new predicate: %d, with one vanishing or returning: %d", writes, newPreds, vanished)
}

// TestAdvanceWriteAboveClearance: the reduction at u keeps the facts of levels
// u does not dominate (Figure 12's listing at level c has them), in
// relations no rule or query at u can read. A write there is therefore one
// base fact in one relation: nothing else changes, and the report says so.
// A write that translates to nothing at all shares the old engine outright.
func TestAdvanceWriteAboveClearance(t *testing.T) {
	db := D1()
	ctx := context.Background()
	old := freshPrepared(t, db, "u")
	fact := mustSigmaFact(t, "s[p(k9: a -s-> secret)].")
	next := db.Clone()
	if err := next.AddClause(fact); err != nil {
		t.Fatal(err)
	}
	red, rep, err := old.Advance(ctx, next, []Clause{fact}, nil, resource.Limits{})
	if err != nil || !rep.Incremental {
		t.Fatalf("advance: incremental=%v reason=%q err=%v", rep.Incremental, rep.Reason, err)
	}
	if want := []string{relPred("p", "s")}; !reflect.DeepEqual(rep.ChangedPreds, want) || rep.Added != 1 || rep.Deleted != 0 {
		t.Fatalf("a write above the clearance changed %v (+%d -%d), want exactly %v (+1 -0)",
			rep.ChangedPreds, rep.Added, rep.Deleted, want)
	}
	sameAsFresh(t, "write above the clearance", red, next, "u")
	for _, q := range []string{"L[p(K: a -C-> V)]", "L[p(K: a -C-> V)] << opt", "L[p(K: a -C-> V)] << cau"} {
		before, _, err := old.QueryPrepared(ctx, mustGoals(t, q), resource.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := red.QueryPrepared(ctx, mustGoals(t, q), resource.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s at u changed across a write at s: %v → %v", q, before, after)
		}
	}

	same, rep, err := red.Advance(ctx, next, nil, nil, resource.Limits{})
	if err != nil || !rep.Incremental || len(rep.ChangedPreds) != 0 {
		t.Fatalf("empty advance: %+v, %v", rep, err)
	}
	if same.inc != red.inc || same.model != red.model {
		t.Fatal("an empty delta did not share the old engine and model")
	}
	again := mustReduce(t, next, "u")
	if rep, err := again.AdvanceFrom(ctx, red, resource.Limits{}); err != nil || !rep.Incremental || again.inc != red.inc {
		t.Fatalf("AdvanceFrom over an unchanged database: %+v, %v, shared=%v", rep, err, again.inc == red.inc)
	}
}

// TestAdvanceReasons pins every way an advance is not incremental, each by
// name, and that the fallback is a correct full prepare.
func TestAdvanceReasons(t *testing.T) {
	ctx := context.Background()
	db, err := Parse(`
		level(l0). level(l1). order(l0, l1).
		l0[p(k1: a -l0-> v1)].
		l1[q(K: b -l1-> V)] :- l0[p(K: a -C-> V)] << opt.
	`)
	if err != nil {
		t.Fatal(err)
	}
	base := freshPrepared(t, db, "l1")
	write := func(src string) (*Database, []Clause) {
		delta, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		next := db.Clone()
		for _, c := range delta.Sigma {
			if err := next.AddClause(c); err != nil {
				t.Fatal(err)
			}
		}
		return next, delta.Sigma
	}

	// The first fact of a predicate Σ has never mentioned brings its belief
	// axioms with it.
	next, added := write("l0[fresh(k1: a -l0-> v1)].")
	red, rep, err := base.Advance(ctx, next, added, nil, resource.Limits{})
	if err != nil || rep.Incremental || rep.Reason != ReasonNewPredicate {
		t.Fatalf("new predicate: %+v, %v", rep, err)
	}
	sameAsFresh(t, "new predicate", red, next, "l1")
	ans, _, err := red.QueryPrepared(ctx, mustGoals(t, "l1[fresh(K: a -C-> V)] << opt"), resource.Limits{})
	if err != nil || len(ans) != 1 {
		t.Fatalf("belief in the new predicate: %v, %v", ans, err)
	}
	// Its second fact is an ordinary delta again.
	next2 := next.Clone()
	second := mustSigmaFact(t, "l1[fresh(k2: a -l1-> v2)].")
	if err := next2.AddClause(second); err != nil {
		t.Fatal(err)
	}
	red2, rep, err := red.Advance(ctx, next2, []Clause{second}, nil, resource.Limits{})
	if err != nil || !rep.Incremental {
		t.Fatalf("second fact of the new predicate: %+v, %v", rep, err)
	}
	sameAsFresh(t, "second fact", red2, next2, "l1")

	next, added = write("l1[r(K: c -l1-> V)] :- l0[p(K: a -C-> V)] << fir.")
	red, rep, err = base.Advance(ctx, next, added, nil, resource.Limits{})
	if err != nil || rep.Incremental || rep.Reason != ReasonRuleChange {
		t.Fatalf("rule change: %+v, %v", rep, err)
	}
	sameAsFresh(t, "rule change", red, next, "l1")

	next, added = write("l0[p(K: a -l0-> v1)].")
	if _, rep, _ = base.Advance(ctx, next, added, nil, resource.Limits{}); rep.Incremental || rep.Reason != ReasonNonGround {
		t.Fatalf("non-ground fact: %+v", rep)
	}

	next, added = write("l0[p(k2: a -l0-> v2)].")
	unprepared := mustReduce(t, db, "l1")
	red, rep, err = unprepared.Advance(ctx, next, added, nil, resource.Limits{})
	if err != nil || rep.Incremental || rep.Reason != ReasonOldNotIncremental {
		t.Fatalf("unprepared old reduction: %+v, %v", rep, err)
	}
	sameAsFresh(t, "unprepared old reduction", red, next, "l1")
	installed := mustReduce(t, db, "l1")
	installed.InstallPrepared(base.model)
	if _, rep, err = installed.Advance(ctx, next, added, nil, resource.Limits{}); err != nil || rep.Reason != ReasonOldNotIncremental {
		t.Fatalf("compiled old reduction: %+v, %v", rep, err)
	}

	// A delta that cannot be translated goes to the full path, which reports
	// what is wrong with it.
	bad := mustSigmaFact(t, "nolevel[p(k3: a -nolevel-> v3)].")
	next = db.Clone()
	if err := next.AddClause(bad); err != nil {
		t.Fatal(err)
	}
	if _, rep, err = base.Advance(ctx, next, []Clause{bad}, nil, resource.Limits{}); err == nil || rep.Reason != ReasonDeltaFailed {
		t.Fatalf("inadmissible fact: %+v, %v", rep, err)
	}
	sameAsFresh(t, "source after a failed advance", base, db, "l1")
}

// TestCloneCarriesPoset: Λ is fixed across Σ/Π writes, so a clone shares the
// evaluated lattice instead of re-deriving it — until a Λ clause arrives.
func TestCloneCarriesPoset(t *testing.T) {
	db := D1()
	poset, err := db.Poset()
	if err != nil {
		t.Fatal(err)
	}
	c := db.Clone()
	if err := c.AddClause(mustSigmaFact(t, "u[p(k2: a -u-> w)].")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Poset(); got != poset {
		t.Fatal("a Σ write made the clone re-evaluate Λ")
	}
	extra, err := Parse("level(t). order(s, t).")
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range extra.Lambda {
		if err := c.AddClause(lc); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Poset()
	if err != nil {
		t.Fatal(err)
	}
	if got == poset || !got.Has("t") || !got.Dominates("t", "u") {
		t.Fatalf("a Λ write did not re-evaluate the clone's lattice: %v", got)
	}
	if again, _ := db.Poset(); again != poset || again.Has("t") {
		t.Fatal("the clone's Λ write reached the original")
	}
}
