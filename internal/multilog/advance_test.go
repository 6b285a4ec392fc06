package multilog

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
)

// The program diff below is how AdvanceFrom found a write's delta before the
// write's own clauses were translated instead: reduce both databases in
// full, render every clause, and subtract the multisets. It stays here as the
// oracle the translated delta is checked against.

// clauseBag is a translated program as a multiset of rendered clauses.
func clauseBag(cs []datalog.Clause) map[string]int {
	bag := map[string]int{}
	for _, c := range cs {
		bag[c.String()]++
	}
	return bag
}

// bagMinus returns a − b, dropping what does not stay positive.
func bagMinus(a, b map[string]int) map[string]int {
	out := map[string]int{}
	for k, n := range a {
		if n > b[k] {
			out[k] = n - b[k]
		}
	}
	return out
}

func mustReduceOpts(t *testing.T, db *Database, user lattice.Label, opts Options) *Reduction {
	t.Helper()
	red, err := ReduceOpts(db, user, opts)
	if err != nil {
		t.Fatalf("reduce at %s: %v", user, err)
	}
	return red
}

func mustReduce(t *testing.T, db *Database, user lattice.Label) *Reduction {
	t.Helper()
	return mustReduceOpts(t, db, user, Options{})
}

// sameAsFresh fails unless red's model and base counts are those of a
// reduction of db prepared from scratch, and its rules are that reduction's
// as a multiset — give or take the inert axioms of predicates whose last
// mention a retract took out of Σ: rules whose head predicate heads nothing
// in the fresh program.
func sameAsFresh(t *testing.T, what string, red *Reduction, db *Database, user lattice.Label) {
	t.Helper()
	fresh := mustReduceOpts(t, db, user, red.opts)
	if err := fresh.Prepare(context.Background(), resource.Limits{}); err != nil {
		t.Fatalf("%s: fresh prepare: %v", what, err)
	}
	sameAs(t, what, red, fresh)
}

// rulesOf is the rule multiset a reduction derives by: its engine's, or,
// before it has one, its Program's.
func rulesOf(r *Reduction) []datalog.Clause {
	if r.inc != nil {
		return r.inc.Rules()
	}
	var rules []datalog.Clause
	for _, c := range r.Program.Clauses {
		if !c.IsFact() {
			rules = append(rules, c)
		}
	}
	return rules
}

// sameAs is sameAsFresh against a fresh reduction already prepared. The base
// counts stand for the fact clauses: one count per assertion.
func sameAs(t *testing.T, what string, red, fresh *Reduction) {
	t.Helper()
	if got, want := modelString(t, red), modelString(t, fresh); got != want {
		t.Fatalf("%s: model diverges from a fresh prepare\ngot:\n%s\nwant:\n%s", what, got, want)
	}
	if !reflect.DeepEqual(red.Counts(), fresh.Counts()) {
		t.Fatalf("%s: base counts diverge from a fresh prepare", what)
	}
	got, want := clauseBag(rulesOf(red)), clauseBag(rulesOf(fresh))
	if missing := bagMinus(want, got); len(missing) > 0 {
		t.Fatalf("%s: the rules lack %v", what, missing)
	}
	heads := map[string]bool{}
	for _, c := range fresh.Program.Clauses {
		heads[c.Head.Pred] = true
	}
	extra := bagMinus(got, want)
	for _, c := range rulesOf(red) {
		if extra[c.String()] > 0 && heads[c.Head.Pred] {
			t.Fatalf("%s: the rules have %s, a fresh reduction's do not", what, c)
		}
	}
}

// ruleWrites is the pool TestTranslatedDeltaMatchesProgramDiff draws rule
// asserts from, over randomDatabase's vocabulary (m-predicates p0, p1, q*,
// the classical h/1): Π rules, Σ belief rules with level variables in all
// three modes and in a user-defined one (→ bel/7, defined by a Π rule of the
// pool), and rules whose head or body is the first mention of a predicate.
// Heads stay off p* and q*, so every combination stratifies.
func ruleWrites(levels []lattice.Label) []string {
	bottom, top := levels[0], levels[len(levels)-1]
	return []string{
		"lv(X) :- level(X).",
		"pair(X, Y) :- h(X), h(Y), X != Y.",
		"h(z).",
		"L[r0(K: e -L-> V)] :- L[p0(K: a -C-> V)] << fir.",
		"L[r1(K: e -L-> V)] :- L[p1(K: b -C-> V)] << opt.",
		"H[r2(K: e -H-> V)] :- L[p0(K: a -C-> V)] << cau, order(L, H).",
		fmt.Sprintf("%s[r3(K: e -%s-> V)] :- L[p1(K: a -C-> V)] << skeptical.", top, top),
		"bel(p1, K, a, seen, C, L, skeptical) :- h(K), level(C), level(L).",
		"L[fresh0(K: e -L-> V)] :- L[p0(K: a -C-> V)] << opt.",
		fmt.Sprintf("%s[r4(k1: e -%s-> v1)] :- %s[ghost(k1: a -C-> V)].", top, top, bottom),
		fmt.Sprintf("%s[fresh1(k1: a -%s-> v1)].", bottom, bottom),
	}
}

// TestTranslatedDeltaMatchesProgramDiff is the delta-translation invariant:
// over random databases × random Σ/Π writes — facts and rules, asserts,
// duplicates and retracts, first mentions of a predicate — × every clearance,
// with and without Options.Filter, translating the write's own clauses
// yields exactly the clause delta the full program diff finds; both entries
// (Advance with the clauses, AdvanceFrom with the two databases) patch the
// old engine and agree with a fresh Prepare on rules, model and counts, the
// source keeping its Program, model and counts;
// the relations an advance reports changed are exactly those whose tuples
// differ, and for a fact write lie inside the ImpactGraph closure; and the
// advanced reduction keeps serving further advances.
func TestTranslatedDeltaMatchesProgramDiff(t *testing.T) {
	seeds, steps := 20, 10
	if testing.Short() {
		seeds, steps = 6, 5
	}
	ctx := context.Background()
	writes, ruleWritesSeen, inert, firstMentions, impactChecked := 0, 0, 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(1400 + seed))
		opts := Options{Filter: seed%4 == 3}
		db, levels := randomDatabase(r)
		pool := ruleWrites(levels)
		prepared := func(db *Database, u lattice.Label) *Reduction {
			red := mustReduceOpts(t, db, u, opts)
			if err := red.Prepare(ctx, resource.Limits{}); err != nil {
				t.Fatal(err)
			}
			return red
		}
		cur, fresh := map[lattice.Label]*Reduction{}, map[lattice.Label]*Reduction{}
		for _, u := range levels {
			cur[u], fresh[u] = prepared(db, u), prepared(db, u)
		}
		for step := 0; step < steps; step++ {
			next := db.Clone()
			var added, removed []Clause
			stored := append(append([]Clause{}, db.Sigma...), db.Pi...)
			switch k := r.Intn(8); {
			case k < 2:
				// Retract a stored clause, fact or rule, in all its copies,
				// as the server does.
				victim := stored[r.Intn(len(stored))]
				for _, part := range []*[]Clause{&next.Sigma, &next.Pi} {
					kept := (*part)[:0]
					for _, c := range *part {
						if c.Equal(victim) {
							removed = append(removed, c)
						} else {
							kept = append(kept, c)
						}
					}
					*part = kept
				}
			case k < 3:
				added = []Clause{stored[r.Intn(len(stored))]} // a duplicate
			case k < 5:
				delta, err := Parse(pool[r.Intn(len(pool))])
				if err != nil {
					t.Fatal(err)
				}
				added = append(delta.Sigma, delta.Pi...)
			default:
				added = []Clause{mustSigmaFact(t, randomFact(r, levels))}
			}
			for _, c := range added {
				if err := next.AddClause(c); err != nil {
					t.Fatal(err)
				}
			}
			if next.CheckAdmissible() != nil {
				continue
			}
			writes++
			written := slices.Concat(added, removed)
			if len(written) > 0 && !written[0].IsFact() {
				ruleWritesSeen++
			}
			// A fact write changes, at every clearance, only relations inside
			// the impact graph's closure over the old database — where the
			// graph can say (not for a predicate new to Σ), and not under
			// Filter, whose Figure 13 rules the graph does not translate.
			var impact map[string]bool
			if !opts.Filter && !slices.ContainsFunc(written, func(c Clause) bool { return !c.IsFact() }) {
				if g, err := NewImpactGraph(db); err != nil {
					t.Fatal(err)
				} else if preds, err := g.Impact(written); err == nil {
					impact = map[string]bool{}
					for _, p := range preds {
						impact[p] = true
					}
				}
			}
			for _, u := range levels {
				what := fmt.Sprintf("seed %d step %d clearance %s (+%v -%v)", seed, step, u, added, removed)
				old := cur[u]
				oldPreds, oldNeeds, oldProgram := maps.Clone(old.preds), maps.Clone(old.needs), old.Program
				freshOld, freshNew := fresh[u], prepared(next, u)

				red, rep, err := old.Advance(ctx, next, added, removed, resource.Limits{})
				if err != nil || rep.Reason != "" {
					t.Fatalf("%s: Advance: reason=%q err=%v", what, rep.Reason, err)
				}
				sameAs(t, what+": Advance", red, freshNew)
				if want := changedPredsBetween(old, red); !reflect.DeepEqual(rep.ChangedPreds, want) &&
					len(rep.ChangedPreds)+len(want) > 0 {
					t.Fatalf("%s: ChangedPreds = %v, want %v", what, rep.ChangedPreds, want)
				}
				if impact != nil {
					for _, p := range rep.ChangedPreds {
						if !impact[p] {
							t.Fatalf("%s: %s changed, outside the impact closure %v", what, p, impact)
						}
					}
					impactChecked++
				}

				// The translated delta is the program diff — whenever neither
				// end carries a vanished predicate's inert axioms, which the
				// diff of two fresh reductions cannot see.
				if len(old.preds) == len(freshOld.preds) && len(red.preds) == len(freshNew.preds) {
					scratch := &Reduction{User: u, Poset: old.Poset, opts: opts, needs: maps.Clone(old.needs), preds: maps.Clone(old.preds)}
					adds, _, err := scratch.translateDelta(added, true)
					dels, _, err2 := scratch.translateDelta(removed, false)
					if err != nil || err2 != nil {
						t.Fatalf("%s: translation refused: %v, %v", what, err, err2)
					}
					oldBag, newBag := clauseBag(freshOld.Program.Clauses), clauseBag(freshNew.Program.Clauses)
					if got, want := clauseBag(adds), bagMinus(newBag, oldBag); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: translated adds %v, program diff %v", what, got, want)
					}
					if got, want := clauseBag(dels), bagMinus(oldBag, newBag); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: translated dels %v, program diff %v", what, got, want)
					}
					rulesIn := func(cs []datalog.Clause) (n int) {
						for _, c := range cs {
							if !c.IsFact() {
								n++
							}
						}
						return n
					}
					if rep.RulesAdded != rulesIn(adds) || rep.RulesRemoved != rulesIn(dels) {
						t.Fatalf("%s: report counts +%d -%d rules, the translation +%d -%d", what,
							rep.RulesAdded, rep.RulesRemoved, rulesIn(adds), rulesIn(dels))
					}
					if len(freshNew.preds) > len(freshOld.preds) {
						firstMentions++
					}
				} else {
					inert++
				}

				viaDiff := mustReduceOpts(t, next, u, opts)
				rep2, err := viaDiff.AdvanceFrom(ctx, old, resource.Limits{})
				if err != nil || rep2.Reason != "" {
					t.Fatalf("%s: AdvanceFrom: reason=%q err=%v", what, rep2.Reason, err)
				}
				sameAs(t, what+": AdvanceFrom", viaDiff, freshNew)
				if !reflect.DeepEqual(rep2.ChangedPreds, rep.ChangedPreds) {
					t.Fatalf("%s: the two entries disagree: %v vs %v", what, rep2.ChangedPreds, rep.ChangedPreds)
				}

				// old is untouched and still what it was.
				sameAs(t, what+": source after Advance", old, freshOld)
				if !reflect.DeepEqual(old.preds, oldPreds) || !reflect.DeepEqual(old.needs, oldNeeds) ||
					old.Program != oldProgram {
					t.Fatalf("%s: the advance wrote to its source", what)
				}
				cur[u], fresh[u] = red, freshNew
			}
			db = next
		}
	}
	if writes < seeds*steps/2 || ruleWritesSeen < writes/5 || inert == 0 || firstMentions == 0 || impactChecked == 0 {
		t.Fatalf("%d writes exercised (%d rule writes; clearance-writes with inert axioms around: %d, with a first mention: %d, held to the impact graph: %d)",
			writes, ruleWritesSeen, inert, firstMentions, impactChecked)
	}
	t.Logf("%d writes (%d of rules) checked at every clearance; clearance-writes with inert axioms around: %d, with a first mention: %d, held to the impact graph: %d",
		writes, ruleWritesSeen, inert, firstMentions, impactChecked)
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
	if err != nil || rep.Reason != "" {
		t.Fatalf("advance: reason=%q err=%v", rep.Reason, err)
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
	if err != nil || rep.Reason != "" || len(rep.ChangedPreds) != 0 {
		t.Fatalf("empty advance: %+v, %v", rep, err)
	}
	if same.inc != red.inc || same.model != red.model {
		t.Fatal("an empty delta did not share the old engine and model")
	}
	again := mustReduce(t, next, "u")
	if rep, err := again.AdvanceFrom(ctx, red, resource.Limits{}); err != nil || rep.Reason != "" || again.inc != red.inc {
		t.Fatalf("AdvanceFrom over an unchanged database: %+v, %v, shared=%v", rep, err, again.inc == red.inc)
	}
}

// evalModel is the reduced program's minimal model as a plain evaluator
// builds it: no engine, no base counts — what InstallPrepared is handed.
func evalModel(t *testing.T, r *Reduction) *datalog.Store {
	t.Helper()
	m, err := datalog.Eval(r.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAdvanceReasons pins what an advance is: a patch of the old model — a
// written rule or a predicate's first mention included, an installed model
// adopted first — or an error that names its reason and leaves old serving.
// Nothing is rebuilt; only AdvanceFrom, handed a pair no delta relates,
// prepares from scratch.
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
	// axioms with it, as added rules of the same delta.
	next, added := write("l0[fresh(k1: a -l0-> v1)].")
	red, rep, err := base.Advance(ctx, next, added, nil, resource.Limits{})
	if err != nil || rep.Reason != "" || rep.Adopted || rep.RulesAdded == 0 {
		t.Fatalf("new predicate: %+v, %v", rep, err)
	}
	sameAsFresh(t, "new predicate", red, next, "l1")
	ans, _, err := red.QueryPrepared(ctx, mustGoals(t, "l1[fresh(K: a -C-> V)] << opt"), resource.Limits{})
	if err != nil || len(ans) != 1 {
		t.Fatalf("belief in the new predicate: %v, %v", ans, err)
	}
	// Its second fact brings none.
	next2 := next.Clone()
	second := mustSigmaFact(t, "l1[fresh(k2: a -l1-> v2)].")
	if err := next2.AddClause(second); err != nil {
		t.Fatal(err)
	}
	red2, rep, err := red.Advance(ctx, next2, []Clause{second}, nil, resource.Limits{})
	if err != nil || rep.Reason != "" || rep.RulesAdded != 0 {
		t.Fatalf("second fact of the new predicate: %+v, %v", rep, err)
	}
	sameAsFresh(t, "second fact", red2, next2, "l1")

	// A written rule is a delta too: its one instance at this clearance, and
	// the axioms of r, which it mentions first — per level one for fir and,
	// per dominated level, one for opt and two for cau: 4 at l0, 7 at l1.
	ruleDB, rule := write("l1[r(K: c -l1-> V)] :- l0[p(K: a -C-> V)] << fir.")
	red, rep, err = base.Advance(ctx, ruleDB, rule, nil, resource.Limits{})
	if err != nil || rep.Reason != "" || rep.RulesAdded != 1+4+7 || rep.Added != 5 {
		t.Fatalf("rule write: %+v, %v", rep, err)
	}
	sameAsFresh(t, "rule write", red, ruleDB, "l1")
	back, rep, err := red.Advance(ctx, db, nil, rule, resource.Limits{})
	if err != nil || rep.Reason != "" || rep.RulesRemoved != 1 || rep.Deleted != 5 {
		t.Fatalf("rule retract: %+v, %v", rep, err)
	}
	sameAsFresh(t, "rule retract", back, db, "l1")

	// An installed model has no counts: the first advance adopts it — the same
	// rule write, the same result, counts included — and leaves it as it was;
	// the advanced reduction has its engine and adopts nothing again.
	installed := mustReduce(t, db, "l1")
	installed.InstallPrepared(evalModel(t, installed))
	red, rep, err = installed.Advance(ctx, ruleDB, rule, nil, resource.Limits{})
	if err != nil || rep.Reason != "" || !rep.Adopted || rep.RulesAdded != 1+4+7 || rep.Added != 5 {
		t.Fatalf("installed old reduction: %+v, %v", rep, err)
	}
	sameAsFresh(t, "advance from an installed model", red, ruleDB, "l1")
	if installed.inc != nil || installed.Counts() != nil || modelString(t, installed) != modelString(t, base) {
		t.Fatal("adoption wrote to the reduction it adopted from")
	}
	if _, rep, err = red.Advance(ctx, db, nil, rule, resource.Limits{}); err != nil || rep.Adopted {
		t.Fatalf("advance from an adopted engine: %+v, %v", rep, err)
	}
	// A write that translates to nothing has nothing to count for.
	same, rep, err := installed.Advance(ctx, db, nil, nil, resource.Limits{})
	if err != nil || rep.Reason != "" || rep.Adopted || same.model != installed.model || same.inc != nil {
		t.Fatalf("empty advance from an installed model: %+v, %v", rep, err)
	}
	// A model that is not the program's is refused, not served.
	short := mustReduce(t, db, "l1")
	m := evalModel(t, short)
	m.Remove(m.Facts(relPred("p", "l0"))[0])
	short.InstallPrepared(m)
	if _, rep, err = short.Advance(ctx, ruleDB, rule, nil, resource.Limits{}); err == nil || rep.Reason != ReasonDeltaFailed {
		t.Fatalf("advance from a model missing a fact: %+v, %v", rep, err)
	}

	// What no clause delta expresses is still a rule change: another
	// clearance, other options, another lattice. AdvanceFrom prepares those
	// from scratch; Advance, handed a Λ clause, refuses.
	lam, err := Parse("level(l2). order(l1, l2).")
	if err != nil {
		t.Fatal(err)
	}
	wider := db.Clone()
	for _, c := range lam.Lambda {
		if err := wider.AddClause(c); err != nil {
			t.Fatal(err)
		}
	}
	for name, other := range map[string]*Reduction{
		"clearance": mustReduce(t, db, "l0"),
		"options":   mustReduceOpts(t, db, "l1", Options{Filter: true}),
		"lattice":   mustReduce(t, wider, "l1"),
	} {
		if rep, err := other.AdvanceFrom(ctx, base, resource.Limits{}); err != nil || rep.Reason != ReasonRuleChange {
			t.Fatalf("another %s: %+v, %v", name, rep, err)
		}
		sameAsFresh(t, "another "+name, other, other.DB, other.User)
	}

	// The refusals: each an error, a reason, no reduction — and none rebuilt.
	unstratifiable := mustSigmaFact(t, "l0[p(K: a -l0-> V)] :- l0[p(K: a -C-> V)] << cau.")
	for _, tc := range []struct {
		name  string
		old   *Reduction
		added []Clause
		want  Refusal
	}{
		{"Λ clause", base, lam.Lambda, ReasonRuleChange},
		{"non-ground fact", base, []Clause{mustSigmaFact(t, "l0[p(K: a -l0-> v1)].")}, ReasonNonGround},
		{"unstratifiable rule", base, []Clause{unstratifiable}, ReasonDeltaFailed},
		{"unstratifiable rule on an installed model", installed, []Clause{unstratifiable}, ReasonDeltaFailed},
		{"inadmissible level", base, []Clause{mustSigmaFact(t, "nolevel[p(k3: a -nolevel-> v3)].")}, ReasonDeltaFailed},
		{"never-prepared old reduction", mustReduce(t, db, "l1"), []Clause{mustSigmaFact(t, "l0[p(k2: a -l0-> v2)].")}, ReasonOldNotIncremental},
	} {
		next := db.Clone()
		next.Sigma = append(next.Sigma, tc.added...) // unchecked: some of these no database admits
		red, rep, err := tc.old.Advance(ctx, next, tc.added, nil, resource.Limits{})
		if err == nil || red != nil || rep.Reason != tc.want {
			t.Fatalf("%s: reduction %v, %+v, %v; want an error for %q", tc.name, red != nil, rep, err, tc.want)
		}
	}
	sameAsFresh(t, "source after refused advances", base, db, "l1")
	if installed.inc != nil || modelString(t, installed) != modelString(t, base) {
		t.Fatal("a refused advance wrote to the installed reduction")
	}
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

// TestRuleAdvanceLeavesSourceServing is the aliasing half of the rule delta,
// for the race detector: while readers QueryPrepared one reduction, a chain
// of rule writes (Σ rules whose body beliefs write needs, a predicate's first
// mention that writes preds and brings axioms, their retracts) advances from
// it, and a sibling chain of fact writes advances from it too. The source's
// answers, Program, registered predicates, belief needs, dependency edges,
// model and counts are afterwards what they were — whether it holds a
// maintenance engine of its own or an installed model each chain's first write
// adopts.
func TestRuleAdvanceLeavesSourceServing(t *testing.T) {
	for _, installed := range []bool{false, true} {
		t.Run(fmt.Sprintf("installed=%v", installed), func(t *testing.T) { ruleAdvanceLeavesSourceServing(t, installed) })
	}
}

func ruleAdvanceLeavesSourceServing(t *testing.T, installed bool) {
	ctx := context.Background()
	db, levels := randomDatabase(rand.New(rand.NewSource(77)))
	top := levels[len(levels)-1]
	src := freshPrepared(t, db, top)
	if installed {
		src = mustReduce(t, db, top)
		src.InstallPrepared(evalModel(t, src))
	}
	queries := []Query{mustGoals(t, "L[p0(K: a -C-> V)] << cau"), mustGoals(t, "L[p1(K: b -C-> V)] << opt"), mustGoals(t, "h(X)")}
	answers := func() string {
		var out []string
		for _, q := range queries {
			ans, _, err := src.QueryPrepared(ctx, q, resource.Limits{})
			if err != nil {
				t.Error(err)
			}
			out = append(out, fmt.Sprint(ans))
		}
		return fmt.Sprint(out)
	}
	want := answers()
	wantPreds, wantNeeds := maps.Clone(src.preds), maps.Clone(src.needs)
	wantProgram, wantCounts, wantModel := clauseBag(src.Program.Clauses), src.Counts(), src.model.String()

	// chain advances from src through writes, asserting each and retracting
	// every other one again, and checks the end against a fresh prepare. Only
	// the step that clones src's own engine is serialized between the chains,
	// as the server's update lock does (Store.Clone marks relations shared:
	// it may run beside readers, not beside another Clone of the same store).
	var fromSrc sync.Mutex
	chain := func(what string, writes []string) {
		red, cur := src, db
		for i, w := range writes {
			delta, err := Parse(w)
			if err != nil {
				t.Error(err)
				return
			}
			clauses := append(delta.Sigma, delta.Pi...)
			for _, retract := range []bool{false, true}[:1+i%2] {
				next := cur.Clone()
				var added, removed []Clause
				if retract {
					removed = clauses
					for _, part := range []*[]Clause{&next.Sigma, &next.Pi} {
						kept := (*part)[:0]
						for _, c := range *part {
							if !c.Equal(clauses[0]) {
								kept = append(kept, c)
							}
						}
						*part = kept
					}
				} else {
					added = clauses
					if err := next.AddClause(clauses[0]); err != nil {
						t.Error(err)
						return
					}
				}
				if red == src {
					fromSrc.Lock()
				}
				adv, rep, err := red.Advance(ctx, next, added, removed, resource.Limits{})
				if red == src {
					fromSrc.Unlock()
				}
				if err != nil || rep.Reason != "" || rep.Adopted != (installed && red == src) {
					t.Errorf("%s: %s (retract=%v): %+v, %v", what, w, retract, rep, err)
					return
				}
				red, cur = adv, next
			}
		}
		fresh, err := Reduce(cur, top)
		if err == nil {
			err = fresh.Prepare(ctx, resource.Limits{})
		}
		if err != nil {
			t.Error(err)
			return
		}
		if fmt.Sprint(red.model) != fmt.Sprint(fresh.model) || !reflect.DeepEqual(red.Counts(), fresh.Counts()) {
			t.Errorf("%s: the advanced chain diverges from a fresh prepare", what)
		}
	}
	var facts []string
	for i := 0; i < 8; i++ {
		facts = append(facts, randomFact(rand.New(rand.NewSource(int64(i))), levels))
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := answers(); got != want {
					t.Errorf("the source's answers changed under a reader:\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	writers.Add(2)
	go func() { defer writers.Done(); chain("rule chain", ruleWrites(levels)) }()
	go func() { defer writers.Done(); chain("fact chain", facts) }()
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := answers(); got != want {
		t.Errorf("the source's answers changed:\n%s\nwant\n%s", got, want)
	}
	if !reflect.DeepEqual(src.preds, wantPreds) || !reflect.DeepEqual(src.needs, wantNeeds) {
		t.Error("an advance wrote to its source's preds or needs")
	}
	if !reflect.DeepEqual(clauseBag(src.Program.Clauses), wantProgram) || !reflect.DeepEqual(src.Counts(), wantCounts) ||
		src.model.String() != wantModel || (installed && src.inc != nil) {
		t.Error("an advance wrote to its source's Program, model or counts")
	}
}

// TestAdvanceRetractUnderRecursion: a Π fact whose tuple supports itself
// through a rule cycle goes when it is retracted, from an engine Prepare built
// and from one adopted at this very write alike — the retract seeds DRed
// instead of asking whether some firing still derives the tuple.
func TestAdvanceRetractUnderRecursion(t *testing.T) {
	db, err := Parse(`
		level(l0).
		p(X) :- q(X).
		q(X) :- p(X).
		p(a). q(b).
	`)
	if err != nil {
		t.Fatal(err)
	}
	fact := db.Pi[2]
	next := db.Clone()
	next.Pi = slices.Delete(slices.Clone(next.Pi), 2, 3)
	for _, installed := range []bool{false, true} {
		old := freshPrepared(t, db, "l0")
		if installed {
			old = mustReduce(t, db, "l0")
			old.InstallPrepared(evalModel(t, old))
		}
		red, rep, err := old.Advance(context.Background(), next, nil, []Clause{fact}, resource.Limits{})
		if err != nil || rep.Adopted != installed {
			t.Fatalf("installed=%v: advance: %+v, %v", installed, rep, err)
		}
		if want := []string{"p", "q"}; !reflect.DeepEqual(rep.ChangedPreds, want) || rep.Deleted != 2 {
			t.Errorf("installed=%v: retracting %s changed %v (-%d), want %v (-2)", installed, fact, rep.ChangedPreds, rep.Deleted, want)
		}
		sameAsFresh(t, fmt.Sprintf("cyclic retract, installed=%v", installed), red, next, "l0")
	}
}

// TestAdvancedReductionQueriesLikeAFreshOne: an advanced reduction holds no
// Program, so the lazy path behind QueryContext and BeliefFacts translates
// its database again before it registers an axiom (RequireBelief). After a
// fact write and after a rule write, with Filter off and on, each such call
// on a just-advanced reduction — b-atoms over a predicate outside Σ, beliefs
// at a level the clearance does not dominate — answers what a fresh
// reduction of the same database does.
func TestAdvancedReductionQueriesLikeAFreshOne(t *testing.T) {
	ctx := context.Background()
	queries := []string{
		"c[nosuch(K: a -C-> V)] << cau",
		"L[nosuch(K: a -C-> V)] << opt",
		"L[p(K: a -C-> V)] << cau",
		"L[r(K: b -C-> V)] << fir",
		"q(X)",
	}
	// D1 without r8, whose write-up from a cautious belief does not stratify
	// under Filter's write-down.
	db, err := Parse(`
		level(u). level(c). level(s). order(u, c). order(c, s).
		u[p(k: a -u-> v)].
		c[p(k: a -c-> t)] :- q(j).
		s[p(k: a -s-> x)].
		q(j).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Filter: true}} {
		for _, w := range []string{"c[p(k2: a -c-> w)].", "c[r(K: b -c-> V)] :- L[p(K: a -C-> V)] << opt."} {
			what := fmt.Sprintf("filter=%v, %s", opts.Filter, w)
			written := mustSigmaFact(t, w)
			next := db.Clone()
			if err := next.AddClause(written); err != nil {
				t.Fatal(err)
			}
			old := mustReduceOpts(t, db, "c", opts)
			if err := old.Prepare(ctx, resource.Limits{}); err != nil {
				t.Fatal(err)
			}
			advanced := func() *Reduction {
				red, rep, err := old.Advance(ctx, next, []Clause{written}, nil, resource.Limits{})
				if err != nil || rep.Reason != "" || red.Program != nil {
					t.Fatalf("%s: advance: %+v, %v, Program kept: %v", what, rep, err, red != nil && red.Program != nil)
				}
				return red
			}
			for _, src := range queries {
				q := mustGoals(t, src)
				want, err := mustReduceOpts(t, next, "c", opts).QueryContext(ctx, q, resource.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if got, err := advanced().QueryContext(ctx, q, resource.Limits{}); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: %s on the advanced reduction: %v, %v; a fresh one answers %v", what, src, got, err, want)
				}
			}
			for _, l := range []lattice.Label{"u", "c", "s"} {
				for _, m := range []Mode{ModeFir, ModeOpt, ModeCau} {
					want, err := mustReduceOpts(t, next, "c", opts).BeliefFacts(l, m)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := advanced().BeliefFacts(l, m); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: BeliefFacts(%s, %s) on the advanced reduction: %v, %v; a fresh one gives %v", what, l, m, got, err, want)
					}
				}
			}
		}
	}
}

// TestAdvanceWithoutDatabaseQueriesLikeAFreshOne: an advance handed no
// database, as the server's write path makes them, answers QueryContext
// exactly as a fresh Reduce + Prepare of the written database does — for
// every (predicate, level, mode) triple the fresh reduction registers and,
// in every mode at every level, for a predicate outside Σ — and registers
// nothing on the way, so it never needs the database it was not given.
func TestAdvanceWithoutDatabaseQueriesLikeAFreshOne(t *testing.T) {
	ctx := context.Background()
	db, err := Parse(`
		level(u). level(c). level(s). order(u, c). order(c, s).
		u[p(k: a -u-> v)].
		c[p(k: a -c-> t)] :- q(j).
		s[p(k: a -s-> x)].
		u[p(k: a -u-> w)].
		q(j).
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Filter: true}} {
		for _, w := range []string{"c[p(k2: a -c-> w)].", "c[r(K: b -c-> V)] :- L[p(K: a -C-> V)] << opt."} {
			what := fmt.Sprintf("filter=%v, %s", opts.Filter, w)
			written := mustSigmaFact(t, w)
			next := db.Clone()
			if err := next.AddClause(written); err != nil {
				t.Fatal(err)
			}
			old := mustReduceOpts(t, db, "c", opts)
			if err := old.Prepare(ctx, resource.Limits{}); err != nil {
				t.Fatal(err)
			}
			red, rep, err := old.Advance(ctx, nil, []Clause{written}, nil, resource.Limits{})
			if err != nil || rep.Reason != "" || red.DB != nil || red.Program != nil {
				t.Fatalf("%s: advance: %+v, %v", what, rep, err)
			}
			fresh := mustReduceOpts(t, next, "c", opts)
			if err := fresh.Prepare(ctx, resource.Limits{}); err != nil {
				t.Fatal(err)
			}
			var queries []string
			for n := range fresh.needs {
				for _, attr := range []string{"a", "b"} {
					queries = append(queries, fmt.Sprintf("%s[%s(K: %s -C-> V)] << %s", n.level, n.pred, attr, n.mode))
				}
			}
			for _, l := range []string{"u", "c", "s", "L"} {
				for _, m := range []Mode{ModeFir, ModeOpt, ModeCau} {
					queries = append(queries, fmt.Sprintf("%s[nosuch(K: a -C-> V)] << %s", l, m))
				}
			}
			slices.Sort(queries)
			for _, src := range queries {
				q := mustGoals(t, src)
				want, err := fresh.QueryContext(ctx, q, resource.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if got, err := red.QueryContext(ctx, q, resource.Limits{}); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: %s without a database: %v, %v; a fresh reduction answers %v", what, src, got, err, want)
				}
			}
			if red.Program != nil || red.model == nil {
				t.Errorf("%s: queries registered axioms on the reduction without a database", what)
			}
		}
	}
}

// TestEmptyAdvanceSharesProgramReadOnly: a write that translates to nothing
// at the clearance of an installed model leaves the advanced reduction
// without an engine, holding its source's Program for the next write to
// adopt the model by. Either side registering a lazy axiom (QueryContext)
// leaves the other's Program, and the predicate set the two share, as they
// were.
func TestEmptyAdvanceSharesProgramReadOnly(t *testing.T) {
	ctx := context.Background()
	db := D1()
	old := mustReduce(t, db, "c")
	old.InstallPrepared(evalModel(t, old))
	// Only s may read the body: at c the rule has no instance.
	rule := mustSigmaFact(t, "c[p(k3: a -c-> V)] :- s[p(k3: a -C-> V)] << fir.")
	next := db.Clone()
	if err := next.AddClause(rule); err != nil {
		t.Fatal(err)
	}
	red, rep, err := old.Advance(ctx, next, []Clause{rule}, nil, resource.Limits{})
	if err != nil || rep.RulesAdded != 0 || red.inc != nil || red.Program == nil || red.Program == old.Program {
		t.Fatalf("empty advance from an installed model: %+v, %v", rep, err)
	}
	if !reflect.DeepEqual(clauseBag(old.Program.Clauses), clauseBag(red.Program.Clauses)) {
		t.Fatal("the advanced reduction does not hold its source's Program")
	}
	// The second step catches an unclipped share: old appends in place over
	// the axioms the first step appended for red.
	for _, step := range []struct {
		who, other *Reduction
		query      string
	}{
		{red, old, "c[nosuch(K: a -C-> V)] << cau"},
		{old, red, "u[other(K: a -C-> V)] << opt"},
	} {
		otherBag, otherPreds := clauseBag(step.other.Program.Clauses), step.other.predList()
		q := mustGoals(t, step.query)
		want, err := mustReduce(t, step.who.DB, "c").QueryContext(ctx, q, resource.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := step.who.QueryContext(ctx, q, resource.Limits{})
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %v, %v; want %v", step.query, got, err, want)
		}
		if !reflect.DeepEqual(clauseBag(step.other.Program.Clauses), otherBag) {
			t.Fatalf("registering %s reached the other reduction's Program", step.query)
		}
		if got := step.other.predList(); !slices.Equal(got, otherPreds) {
			t.Fatalf("registering %s reached the other reduction's predicates: %v, was %v", step.query, got, otherPreds)
		}
	}
}
