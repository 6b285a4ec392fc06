package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/term"
)

func atoms(t *testing.T, srcs ...string) []Atom {
	t.Helper()
	out := make([]Atom, len(srcs))
	for i, s := range srcs {
		out[i] = mustAtom(t, s)
	}
	return out
}

// facts makes each atom a fact clause: a base assertion for ApplyClauses.
func facts(as []Atom) []Clause {
	out := make([]Clause, len(as))
	for i, a := range as {
		out[i] = Fact(a)
	}
	return out
}

func TestStoreRemove(t *testing.T) {
	s := NewStore()
	facts := []Atom{
		NewAtom("e", term.Const("a"), term.Const("b")),
		NewAtom("e", term.Const("b"), term.Const("c")),
		NewAtom("e", term.Const("a"), term.Const("c")),
		NewAtom("p", term.Const("x")),
	}
	for _, f := range facts {
		if added, err := s.Insert(f); err != nil || !added {
			t.Fatalf("insert %s: added=%v err=%v", f, added, err)
		}
	}
	if s.Remove(NewAtom("e", term.Const("z"), term.Const("z"))) {
		t.Fatal("removed an absent fact")
	}
	if !s.Remove(facts[0]) {
		t.Fatal("failed to remove a present fact")
	}
	if s.Contains(facts[0]) {
		t.Fatal("removed fact still present")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// The index must still find the swapped-in fact.
	var hits int
	s.Match(NewAtom("e", term.Const("a"), term.Var("X")), term.Subst{}, func(term.Subst) bool {
		hits++
		return true
	})
	if hits != 1 {
		t.Fatalf("indexed match after remove: %d hits, want 1", hits)
	}
	// Re-insert and verify it comes back cleanly.
	if added, err := s.Insert(facts[0]); err != nil || !added {
		t.Fatalf("re-insert: added=%v err=%v", added, err)
	}
	hits = 0
	s.Match(NewAtom("e", term.Var("X"), term.Var("Y")), term.Subst{}, func(term.Subst) bool {
		hits++
		return true
	})
	if hits != 3 {
		t.Fatalf("unindexed scan after re-insert: %d hits, want 3", hits)
	}
	// Removing the last fact of a predicate drops the relation.
	if !s.Remove(facts[3]) {
		t.Fatal("failed to remove p(x)")
	}
	if got := s.Facts("p"); got != nil {
		t.Fatalf("Facts(p) = %v after removing the only fact", got)
	}
}

// applyRef applies a delta to a plain fact multiset, the reference the
// incremental engine is checked against.
type refState struct {
	rules *Program
	base  map[string]int
	atoms map[string]Atom
}

func newRefState(t *testing.T, src string) (*refState, *Incremental) {
	t.Helper()
	p := mustParse(t, src)
	rs := &refState{rules: &Program{}, base: map[string]int{}, atoms: map[string]Atom{}}
	for _, c := range p.Clauses {
		if c.IsFact() {
			rs.base[c.Head.Key()]++
			rs.atoms[c.Head.Key()] = c.Head
		} else {
			rs.rules.Add(c)
		}
	}
	inc, err := NewIncremental(p, nil)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	return rs, inc
}

// full evaluates the reference state from scratch.
func (rs *refState) full(t *testing.T) (*Store, *Incremental) {
	t.Helper()
	p := &Program{}
	p.Add(rs.rules.Clauses...)
	for k, n := range rs.base {
		for i := 0; i < n; i++ {
			p.Add(Fact(rs.atoms[k]))
		}
	}
	model, err := Eval(p, nil)
	if err != nil {
		t.Fatalf("reference Eval: %v", err)
	}
	fresh, err := NewIncremental(p, nil)
	if err != nil {
		t.Fatalf("reference NewIncremental: %v", err)
	}
	return model, fresh
}

func (rs *refState) apply(adds, dels []Atom) {
	for _, d := range dels {
		if rs.base[d.Key()] > 0 {
			rs.base[d.Key()]--
			if rs.base[d.Key()] == 0 {
				delete(rs.base, d.Key())
			}
		}
	}
	for _, a := range adds {
		rs.base[a.Key()]++
		rs.atoms[a.Key()] = a
	}
}

// step applies the delta to both the engine and the reference and fails the
// test on any divergence in tuple sets or base counts.
func step(t *testing.T, rs *refState, inc *Incremental, adds, dels []Atom) *DeltaResult {
	t.Helper()
	before := inc.Model().String()
	res, err := inc.ApplyClauses(context.Background(), facts(adds), facts(dels))
	if err != nil {
		t.Fatalf("ApplyClauses(+%v, -%v): %v", adds, dels, err)
	}
	rs.apply(adds, dels)
	refModel, fresh := rs.full(t)
	if got, want := inc.Model().String(), refModel.String(); got != want {
		t.Fatalf("model divergence after +%v -%v\nbefore:\n%s\nincremental:\n%s\nreference:\n%s",
			adds, dels, before, got, want)
	}
	if got, want := inc.Counts(), fresh.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("count divergence after +%v -%v\nincremental: %v\nreference:   %v",
			adds, dels, got, want)
	}
	return res
}

func TestIncrementalChainTC(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b). e(b, c). e(c, d).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`)
	res := step(t, rs, inc, atoms(t, "e(d, f)"), nil)
	if len(res.Changed["tc"].Added) == 0 {
		t.Fatal("adding an edge added no tc tuples")
	}
	step(t, rs, inc, nil, atoms(t, "e(b, c)"))
	step(t, rs, inc, atoms(t, "e(b, c)"), nil)
	// Delete and re-add different support in one delta.
	step(t, rs, inc, atoms(t, "e(a, c)"), atoms(t, "e(a, b)"))
}

func TestIncrementalCyclicSupport(t *testing.T) {
	// The classic case against trusting a surviving firing: p(a)'s firing
	// through the cycle outlives its external support. DRed must take p(a)
	// (and the cycle-mate q(a)) out.
	rs, inc := newRefState(t, `
		e(a).
		p(X) :- e(X).
		p(X) :- q(X).
		q(X) :- p(X).
	`)
	res := step(t, rs, inc, nil, atoms(t, "e(a)"))
	if len(res.Changed["p"].Deleted) != 1 || len(res.Changed["q"].Deleted) != 1 {
		t.Fatalf("cyclic support not deleted: %+v", res.Changed)
	}
	step(t, rs, inc, atoms(t, "e(a)"), nil)
}

func TestIncrementalNegation(t *testing.T) {
	rs, inc := newRefState(t, `
		node(a). node(b). node(c).
		start(a).
		e(a, b).
		reach(X) :- start(X).
		reach(Y) :- reach(X), e(X, Y).
		unreached(X) :- node(X), not reach(X).
	`)
	// Addition below the negation deletes above it: c becomes reached.
	res := step(t, rs, inc, atoms(t, "e(b, c)"), nil)
	if len(res.Changed["unreached"].Deleted) != 1 {
		t.Fatalf("adding an edge should delete one unreached tuple: %+v", res.Changed)
	}
	// Deletion below the negation adds above it: b and c fall out of reach.
	res = step(t, rs, inc, nil, atoms(t, "e(a, b)"))
	if len(res.Changed["unreached"].Added) != 2 {
		t.Fatalf("deleting the bridge should add two unreached tuples: %+v", res.Changed)
	}
	step(t, rs, inc, atoms(t, "e(a, c)"), nil)
	step(t, rs, inc, nil, atoms(t, "node(b)"))

	// A non-recursive diamond: a(1) has a firing through b and one through c.
	// Losing one over-deletes a(1), and d(1) with it, and puts both back
	// inside their stratum; e's stratum, which negates a, sees no change.
	rs, inc = newRefState(t, `
		a(X) :- b(X).
		a(X) :- c(X).
		d(X) :- a(X).
		e(X) :- n(X), not a(X).
		b(1). c(1). n(1).
	`)
	res = step(t, rs, inc, nil, atoms(t, "b(1)"))
	if got := res.ChangedPreds(); !reflect.DeepEqual(got, []string{"b"}) || inc.Model().Contains(mustAtom(t, "e(1)")) {
		t.Fatalf("retracting b(1) changed more than b: %+v", res.Changed)
	}
	// Now a(1) has no firing left: it goes, d(1) with it, and e(1) arrives.
	res = step(t, rs, inc, nil, atoms(t, "c(1)"))
	if len(res.Changed["a"].Deleted) != 1 || len(res.Changed["d"].Deleted) != 1 || len(res.Changed["e"].Added) != 1 {
		t.Fatalf("retracting c(1), a(1)'s last firing: %+v", res.Changed)
	}
}

func TestIncrementalAssertRetractNoop(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b). e(b, c).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
		dead(X) :- node(X), not live(X).
		node(n1). live(n1).
	`)
	wantModel := inc.Model().String()
	wantCounts := inc.Counts()
	for _, fact := range []string{"e(c, d)", "node(n2)", "live(n1)", "e(a, b)"} {
		step(t, rs, inc, atoms(t, fact), nil)
		step(t, rs, inc, nil, atoms(t, fact))
		if got := inc.Model().String(); got != wantModel {
			t.Fatalf("assert+retract %s is not a no-op\ngot:\n%s\nwant:\n%s", fact, got, wantModel)
		}
		if got := inc.Counts(); !reflect.DeepEqual(got, wantCounts) {
			t.Fatalf("assert+retract %s drifted counts: %v != %v", fact, got, wantCounts)
		}
	}
	// Within one delta, retracts apply before asserts: retracting an absent
	// atom is a no-op and the assert lands, so the pair nets to an assert.
	step(t, rs, inc, atoms(t, "e(z, z)"), atoms(t, "e(z, z)"))
	if !inc.Model().Contains(mustAtom(t, "e(z, z)")) {
		t.Fatal("same-delta retract+assert should net to an assert")
	}
	step(t, rs, inc, nil, atoms(t, "e(z, z)"))
	if got := inc.Model().String(); got != wantModel {
		t.Fatalf("state did not return to baseline:\n%s\nwant:\n%s", got, wantModel)
	}
}

func TestIncrementalBaseAndDerivedOverlap(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b).
		tc(X, Y) :- e(X, Y).
		tc(a, b).
	`)
	if base := inc.Counts()[mustAtom(t, "tc(a, b)").Key()]; base != 1 {
		t.Fatalf("tc(a,b) base count = %d, want 1", base)
	}
	// Retracting the base assertion keeps the tuple (still derived).
	res := step(t, rs, inc, nil, atoms(t, "tc(a, b)"))
	if len(res.Changed) != 0 || !inc.Model().Contains(mustAtom(t, "tc(a, b)")) {
		t.Fatalf("retracting a still-derived base fact changed membership: %+v", res.Changed)
	}
	// Now deleting the edge removes the derivation and the tuple.
	res = step(t, rs, inc, nil, atoms(t, "e(a, b)"))
	if len(res.Changed["tc"].Deleted) != 1 {
		t.Fatalf("tuple should be gone once base and derivations are: %+v", res.Changed)
	}
	// Base assertion and premise retracted in one delta: gone at once.
	step(t, rs, inc, atoms(t, "e(a, b)", "tc(a, b)"), nil)
	res = step(t, rs, inc, nil, atoms(t, "tc(a, b)", "e(a, b)"))
	if len(res.Changed["tc"].Deleted) != 1 || inc.Model().Len() != 0 {
		t.Fatalf("tc(a,b) outlived its base fact and its premise: %+v", res.Changed)
	}
}

// TestIncrementalBaseRetractUnderRecursion: a tuple that lost its last base
// assertion is a deletion seed of its stratum, not a question put to a stored
// number — a firing that runs through the tuple's own consequences must not
// keep it.
func TestIncrementalBaseRetractUnderRecursion(t *testing.T) {
	t.Run("two-rule cycle", func(t *testing.T) {
		rs, inc := newRefState(t, `
			p(X) :- q(X).
			q(X) :- p(X).
			p(a).
		`)
		res := step(t, rs, inc, nil, atoms(t, "p(a)"))
		if inc.Model().Len() != 0 || len(res.Changed["p"].Deleted) != 1 || len(res.Changed["q"].Deleted) != 1 {
			t.Fatalf("p(a) kept itself alive through q(a):\n%s\n%+v", inc.Model(), res.Changed)
		}
	})
	t.Run("longer cycle, second base fact", func(t *testing.T) {
		rs, inc := newRefState(t, `
			p(X) :- s(X).
			q(X) :- p(X).
			r(X) :- q(X).
			s(X) :- r(X).
			p(a). r(a). q(b).
		`)
		// r(a) still feeds the cycle: everything on a stays.
		if res := step(t, rs, inc, nil, atoms(t, "p(a)")); len(res.Changed) != 0 {
			t.Fatalf("the cycle lost tuples while r(a) is asserted: %+v", res.Changed)
		}
		// Without it the cycle on a supports only itself; b's is untouched.
		res := step(t, rs, inc, nil, atoms(t, "r(a)"))
		if n := len(res.ChangedPreds()); n != 4 || inc.Model().Len() != 4 {
			t.Fatalf("the a-cycle outlived its last base fact:\n%s\n%+v", inc.Model(), res.Changed)
		}
	})
	t.Run("retract and reassert in one delta", func(t *testing.T) {
		rs, inc := newRefState(t, `
			p(X) :- q(X).
			q(X) :- p(X).
			p(a).
		`)
		if res := step(t, rs, inc, atoms(t, "p(a)"), atoms(t, "p(a)")); len(res.Changed) != 0 {
			t.Fatalf("retract+assert of p(a) in one delta changed membership: %+v", res.Changed)
		}
		// And in a non-recursive stratum, over a derivation.
		rs, inc = newRefState(t, `
			e(a). tc(a).
			tc(X) :- e(X).
		`)
		if res := step(t, rs, inc, atoms(t, "tc(a)"), atoms(t, "tc(a)", "e(a)")); len(res.Changed["tc"].Deleted) != 0 {
			t.Fatalf("tc(a) was re-asserted in the delta that took e(a): %+v", res.Changed)
		}
		step(t, rs, inc, nil, atoms(t, "tc(a)"))
	})
	t.Run("the predicate lost its last rule in the same delta", func(t *testing.T) {
		rs, inc := newRefState(t, `
			e(a). e(b). d(a).
			d(X) :- e(X).
			up(X) :- d(X).
		`)
		res := clauseStep(t, rs, inc, "", "d(X) :- e(X). d(a).")
		if len(res.Changed["d"].Deleted) != 2 || len(res.Changed["up"].Deleted) != 2 {
			t.Fatalf("d lost its rule and its fact: %+v", res.Changed)
		}
		// One rule of two leaves with the base fact: the other still derives it.
		rs, inc = newRefState(t, `
			e(a). f(a). d(a).
			d(X) :- e(X).
			d(X) :- f(X).
		`)
		if res := clauseStep(t, rs, inc, "", "d(X) :- e(X). d(a)."); len(res.Changed) != 0 {
			t.Fatalf("d(a) is still derived from f(a): %+v", res.Changed)
		}
	})
}

func TestIncrementalDuplicateBaseFacts(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b). e(a, b).
		tc(X, Y) :- e(X, Y).
	`)
	if base := inc.Counts()[mustAtom(t, "e(a, b)").Key()]; base != 2 {
		t.Fatalf("duplicate fact base count = %d, want 2", base)
	}
	// One retract leaves the other assertion standing.
	res := step(t, rs, inc, nil, atoms(t, "e(a, b)"))
	if len(res.Changed) != 0 {
		t.Fatalf("first retract of a doubly asserted fact changed membership: %+v", res.Changed)
	}
	res = step(t, rs, inc, nil, atoms(t, "e(a, b)"))
	if len(res.Changed["e"].Deleted) != 1 || len(res.Changed["tc"].Deleted) != 1 {
		t.Fatalf("second retract should delete e and tc: %+v", res.Changed)
	}
}

func TestIncrementalBuiltins(t *testing.T) {
	rs, inc := newRefState(t, `
		p(a). p(b).
		diff(X, Y) :- p(X), p(Y), X != Y.
		alias(X, Y) :- p(X), Y = X.
	`)
	step(t, rs, inc, atoms(t, "p(c)"), nil)
	step(t, rs, inc, nil, atoms(t, "p(a)"))
	step(t, rs, inc, nil, atoms(t, "p(b)"))
}

func TestIncrementalClone(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b). e(b, c).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`)
	snapshot := inc.Model().String()
	clone := inc.Clone()
	step(t, rs, inc, atoms(t, "e(c, d)"), atoms(t, "e(a, b)"))
	if got := clone.Model().String(); got != snapshot {
		t.Fatalf("mutating the original leaked into the clone:\n%s\nvs\n%s", got, snapshot)
	}
	// The clone must still be maintainable on its own.
	if _, err := clone.ApplyClauses(context.Background(), facts(atoms(t, "e(x, y)")), nil); err != nil {
		t.Fatalf("clone ApplyClauses: %v", err)
	}
}

// TestIncrementalRandomStorm drives random deltas over every structural
// shape (chains, cycles, negation, builtins) and cross-checks the model and
// counts against from-scratch evaluation after every step.
func TestIncrementalRandomStorm(t *testing.T) {
	programs := []string{
		`tc(X, Y) :- e(X, Y).
		 tc(X, Z) :- e(X, Y), tc(Y, Z).`,
		`tc(X, Y) :- e(X, Y).
		 tc(X, Z) :- tc(X, Y), tc(Y, Z).`,
		`reach(X) :- start(X).
		 reach(Y) :- reach(X), e(X, Y).
		 unreached(X) :- node(X), not reach(X).
		 node(a). node(b). node(c). node(d). start(a).`,
		`sg(X, X) :- node(X).
		 sg(X, Y) :- e(P, X), sg(P, Q), e(Q, Y).
		 node(a). node(b). node(c). node(d).`,
	}
	steps, seeds := 40, 4
	if testing.Short() {
		steps, seeds = 12, 2
	}
	consts := []string{"a", "b", "c", "d"}
	for pi, src := range programs {
		for seed := 0; seed < seeds; seed++ {
			pi, src, seed := pi, src, seed
			t.Run(fmt.Sprintf("program%d/seed%d", pi, seed), func(t *testing.T) {
				rs, inc := newRefState(t, src)
				r := rand.New(rand.NewSource(int64(100 + 10*pi + seed)))
				present := map[string]Atom{}
				for i := 0; i < steps; i++ {
					var adds, dels []Atom
					n := 1 + r.Intn(3)
					for j := 0; j < n; j++ {
						if len(present) > 0 && r.Intn(3) == 0 {
							// Delete a random currently asserted edge.
							keys := make([]string, 0, len(present))
							for k := range present {
								keys = append(keys, k)
							}
							sort.Strings(keys)
							k := keys[r.Intn(len(keys))]
							dels = append(dels, present[k])
							delete(present, k)
						} else {
							a := NewAtom("e",
								term.Const(consts[r.Intn(len(consts))]),
								term.Const(consts[r.Intn(len(consts))]))
							adds = append(adds, a)
							present[a.Key()] = a
						}
					}
					step(t, rs, inc, adds, dels)
				}
			})
		}
	}
}

// clauseStep applies a clause delta — source text, rules and facts mixed — to
// the engine and to the reference, and fails on any divergence in tuple sets
// or base counts from a from-scratch build of the resulting program.
func clauseStep(t *testing.T, rs *refState, inc *Incremental, addSrc, delSrc string) *DeltaResult {
	t.Helper()
	adds, dels := mustParse(t, addSrc).Clauses, mustParse(t, delSrc).Clauses
	res, err := inc.ApplyClauses(context.Background(), adds, dels)
	if err != nil {
		t.Fatalf("ApplyClauses(+%s, -%s): %v", addSrc, delSrc, err)
	}
	var addFacts, delFacts []Atom
	for _, d := range dels {
		if d.IsFact() {
			delFacts = append(delFacts, d.Head)
			continue
		}
		for i, c := range rs.rules.Clauses {
			if c.Equal(d) {
				rs.rules.Clauses = append(rs.rules.Clauses[:i:i], rs.rules.Clauses[i+1:]...)
				break
			}
		}
	}
	for _, a := range adds {
		if a.IsFact() {
			addFacts = append(addFacts, a.Head)
		} else {
			rs.rules.Add(a)
		}
	}
	rs.apply(addFacts, delFacts)
	refModel, fresh := rs.full(t)
	if got, want := inc.Model().String(), refModel.String(); got != want {
		t.Fatalf("model divergence after +%s -%s\nincremental:\n%s\nreference:\n%s", addSrc, delSrc, got, want)
	}
	if got, want := inc.Counts(), fresh.Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("count divergence after +%s -%s\nincremental: %v\nreference:   %v", addSrc, delSrc, got, want)
	}
	return res
}

// TestIncrementalRuleDeltas walks one engine through every shape of rule
// change: each step is checked, model and counts, against a fresh build.
func TestIncrementalRuleDeltas(t *testing.T) {
	rs, inc := newRefState(t, `
		e(a, b). e(b, c). e(c, a). node(a). node(b). node(c). node(d).
		tc(X, Y) :- e(X, Y).
	`)
	// Recursion arrives and leaves again.
	res := clauseStep(t, rs, inc, "tc(X, Z) :- e(X, Y), tc(Y, Z).", "")
	if res.RulesAdded != 1 || len(res.Changed["tc"].Added) != 6 {
		t.Fatalf("adding the recursive rule: %+v", res)
	}
	res = clauseStep(t, rs, inc, "", "tc(X, Z) :- e(X, Y), tc(Y, Z).")
	if res.RulesRemoved != 1 || len(res.Changed["tc"].Deleted) != 6 {
		t.Fatalf("removing the recursive rule: %+v", res)
	}
	// A head on a brand-new predicate, negating a lower stratum; then the
	// lower stratum grows under it, by a rule and a fact in one delta.
	res = clauseStep(t, rs, inc, "island(X) :- node(X), not linked(X). linked(X) :- tc(X, Y).", "")
	if got := len(res.Changed["island"].Added); got != 1 {
		t.Fatalf("island: %d tuples, want 1 (d)", got)
	}
	clauseStep(t, rs, inc, "linked(X) :- tc(Y, X). e(c, d).", "")
	if inc.Model().Contains(mustAtom(t, "island(d)")) {
		t.Fatal("island(d) survived e(c, d)")
	}
	// The rule set is a multiset: a duplicate of a present rule changes no
	// tuple; one retract takes one copy and still none, a second the other, a
	// third is a no-op.
	if res = clauseStep(t, rs, inc, "tc(X, Y) :- e(X, Y).", ""); res.RulesAdded != 1 || len(res.Changed) != 0 {
		t.Fatalf("duplicating tc's rule: %+v", res)
	}
	if res = clauseStep(t, rs, inc, "", "tc(X, Y) :- e(X, Y)."); res.RulesRemoved != 1 || len(res.Changed) != 0 {
		t.Fatalf("removing one of tc's two equal rules: %+v", res)
	}
	res = clauseStep(t, rs, inc, "", "tc(X, Y) :- e(X, Y).")
	if res.RulesRemoved != 1 || len(res.Changed["tc"].Deleted) != 4 || len(res.Changed["island"].Added) != 4 {
		t.Fatalf("removing tc's last rule: %+v", res)
	}
	model := inc.Model().String()
	res = clauseStep(t, rs, inc, "", "tc(X, Y) :- e(X, Y).")
	if res.RulesRemoved != 0 || len(res.Changed) != 0 || inc.Model().String() != model {
		t.Fatalf("retracting an absent rule: %+v", res)
	}
	// Replaced in one delta: the rule leaves, a different definition arrives.
	clauseStep(t, rs, inc, "linked(X) :- e(X, X).", "linked(X) :- tc(X, Y).")

	// An unstratifiable or unsafe result is refused before anything moves,
	// and the engine keeps working.
	counts := inc.Counts()
	for _, bad := range []string{"linked(X) :- node(X), not island(X).", "tc(X, Y) :- e(X, Z)."} {
		if _, err := inc.ApplyClauses(context.Background(), mustParse(t, bad).Clauses, nil); err == nil {
			t.Fatalf("%s was accepted", bad)
		}
		if !reflect.DeepEqual(inc.Counts(), counts) {
			t.Fatalf("refusing %s changed the model", bad)
		}
	}
	clauseStep(t, rs, inc, "tc(X, Y) :- e(X, Y). e(d, a).", "e(c, a).")
}

// TestRuleDeltaLeavesCloneSourceAlone: a rule delta edits a private copy of
// its engine's rule-set delta over the shared base, so the engine it was
// cloned from — itself carrying a delta — a sibling clone taking a rule delta
// of its own and one taking fact deltas keep their rules, every lookup of
// their rule sets and their models.
func TestRuleDeltaLeavesCloneSourceAlone(t *testing.T) {
	// Sixty-four rules: a base no edit here reaches FoldAt of.
	src0 := `
		e(a, b). e(b, c).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`
	for i := 0; i < 62; i++ {
		src0 += fmt.Sprintf("out%d(X) :- e(X, Y).\n", i)
	}
	rs, src := newRefState(t, src0)
	// Five rules in one delta leave its rules and lists with room to grow,
	// which two clones appending would share if an edit did not copy them.
	clauseStep(t, rs, src, `far(X) :- tc(a, X), not e(a, X). far(X) :- tc(b, X).
		far(X) :- tc(c, X). far(X) :- tc(d, X). far(X) :- tc(X, a).`, "")
	if src.base == nil {
		t.Fatal("a rule delta left a flat rule set: no delta to share")
	}
	type snapshot struct {
		rules   []Clause
		lookups map[string]string
		model   string
		counts  map[string]int
	}
	snap := func(inc *Incremental) snapshot {
		return snapshot{slices.Clone(inc.Rules()), ruleLookups(inc.ruleSet, true), inc.Model().String(), inc.Counts()}
	}
	srcRules, was := src.ruleSet, snap(src)
	ruled, other, sibling := src.Clone(), src.Clone(), src.Clone()
	// The first lifts tc, a predicate of the base, and what reads it.
	if _, err := ruled.ApplyClauses(context.Background(),
		mustParse(t, "near(X) :- tc(X, c), not far(X). tc(X, Y) :- e(X, Y), not cut(X, Y).").Clauses,
		mustParse(t, "tc(X, Z) :- e(X, Y), tc(Y, Z).").Clauses); err != nil {
		t.Fatal(err)
	}
	ruledWas := snap(ruled)
	if _, err := other.ApplyClauses(context.Background(),
		mustParse(t, "far(X) :- e(X, Y), tc(Y, a). near(X) :- e(X, X).").Clauses,
		mustParse(t, "far(X) :- tc(a, X), not e(a, X).").Clauses); err != nil {
		t.Fatal(err)
	}
	if ruled.base == nil || other.base == nil {
		t.Fatal("a rule delta folded: the clones share no delta")
	}
	step(t, rs, sibling, atoms(t, "e(c, d)"), nil)
	if src.ruleSet != srcRules || sibling.ruleSet != srcRules || ruled.ruleSet == srcRules || other.ruleSet == srcRules {
		t.Fatal("the rule deltas did not replace exactly their own engines' rule sets")
	}
	for _, c := range []struct {
		name      string
		inc       *Incremental
		was       snapshot
		sameModel bool
	}{{"the source", src, was, true}, {"the sibling", sibling, was, false}, {"the first rule delta", ruled, ruledWas, true}} {
		now := snap(c.inc)
		if !slices.EqualFunc(now.rules, c.was.rules, Clause.Equal) {
			t.Errorf("%s's rules changed:\n%v\nwas\n%v", c.name, now.rules, c.was.rules)
		}
		if !reflect.DeepEqual(now.lookups, c.was.lookups) {
			t.Errorf("%s's rule lookups changed:\n%v\nwere\n%v", c.name, now.lookups, c.was.lookups)
		}
		if c.sameModel && (now.model != c.was.model || !reflect.DeepEqual(now.counts, c.was.counts)) {
			t.Errorf("%s's model changed", c.name)
		}
	}
}

// TestRuleToggleNetsOut: an assert of a rule and its retract net out of the
// rule-set delta. 200 pairs of one rule, each edit to a clone as the write
// path applies them, over a delta whose frozen base holds 16 rules (FoldAt
// 8): after every retract the delta has the changes it had before the
// assert and the same base — no fold, however many pairs — and the live
// rules, model and counts equal a rebuild's, after every assert as well.
func TestRuleToggleNetsOut(t *testing.T) {
	src := `
		e(a, b). e(b, c). e(c, a). e(c, d). node(a). node(b). node(c). node(d).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
		far(X) :- node(X), not tc(a, X).
	`
	for i := 0; i < 13; i++ {
		src += fmt.Sprintf("out%d(X) :- e(X, Y).\n", i)
	}
	_, inc := newRefState(t, src)
	// One edit that stays: the toggles run over a delta, not a flat set.
	if _, err := inc.ApplyClauses(context.Background(), mustParse(t, "near(X) :- tc(X, c).").Clauses, nil); err != nil {
		t.Fatal(err)
	}
	base, changes := inc.base, inc.changes()
	if base == nil || len(base.rules) != 16 {
		t.Fatal("the set-up edit did not leave a delta over the 16 rules")
	}
	toggled := mustParse(t, "churn(X) :- e(X, Y), tc(Y, a).").Clauses
	type image struct {
		rules  []Clause
		model  string
		counts map[string]int
	}
	rebuilt := func(extra []Clause) image {
		p := mustParse(t, src+"near(X) :- tc(X, c).")
		p.Add(extra...)
		fresh, err := NewIncremental(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return image{fresh.Rules(), fresh.Model().String(), fresh.Counts()}
	}
	without, with := rebuilt(nil), rebuilt(toggled)
	check := func(pair int, what string, want image) {
		t.Helper()
		if !slices.EqualFunc(inc.live(), want.rules, Clause.Equal) {
			t.Fatalf("pair %d, after the %s: live rules\n%v\nwant\n%v", pair, what, inc.live(), want.rules)
		}
		if got := inc.Model().String(); got != want.model {
			t.Fatalf("pair %d, after the %s: model\n%s\nwant\n%s", pair, what, got, want.model)
		}
		if got := inc.Counts(); !reflect.DeepEqual(got, want.counts) {
			t.Fatalf("pair %d, after the %s: counts %v, want %v", pair, what, got, want.counts)
		}
	}
	for pair := 0; pair < 200; pair++ {
		for _, assert := range []bool{true, false} {
			adds, dels, what, want := toggled, []Clause(nil), "assert", with
			if !assert {
				adds, dels, what, want = nil, toggled, "retract", without
			}
			inc = inc.Clone()
			res, err := inc.ApplyClauses(context.Background(), adds, dels)
			if err != nil {
				t.Fatalf("pair %d, %s: %v", pair, what, err)
			}
			if res.RulesAdded+res.RulesRemoved != 1 {
				t.Fatalf("pair %d, %s: %d rules added, %d removed", pair, what, res.RulesAdded, res.RulesRemoved)
			}
			check(pair, what, want)
			if inc.base != base {
				t.Fatalf("pair %d, after the %s: the rule set folded", pair, what)
			}
		}
		if got := inc.changes(); got != changes {
			t.Fatalf("pair %d: the delta holds %d changes after the retract, %d before the assert", pair, got, changes)
		}
	}
}
