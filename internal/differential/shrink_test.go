package differential

import (
	"reflect"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
	"repro/internal/workload"
)

// ddmin on a synthetic failure: the failure persists iff both 3 and 17
// survive, so the minimum is exactly {3, 17}.
func TestDDMin(t *testing.T) {
	var items []int
	for i := 0; i < 20; i++ {
		items = append(items, i)
	}
	calls := 0
	fails := func(xs []int) bool {
		calls++
		has3, has17 := false, false
		for _, x := range xs {
			has3 = has3 || x == 3
			has17 = has17 || x == 17
		}
		return has3 && has17
	}
	got := ddmin(items, fails)
	if !reflect.DeepEqual(got, []int{3, 17}) {
		t.Fatalf("ddmin = %v, want [3 17]", got)
	}
	if calls > 200 {
		t.Errorf("ddmin used %d probes on 20 items; expected well under 200", calls)
	}
}

// dropNegation is the injected fault: an "engine" that silently ignores
// negated body literals — the classic stratification bug.
func dropNegation(p *datalog.Program) *datalog.Program {
	out := &datalog.Program{Queries: p.Queries}
	for _, c := range p.Clauses {
		nc := datalog.Clause{Head: c.Head}
		for _, l := range c.Body {
			if !l.Negated {
				nc.Body = append(nc.Body, l)
			}
		}
		out.Add(nc)
	}
	return out
}

// TestShrinkInjectedFault demonstrates the shrinker end to end: a ~25
// clause generated program on which a deliberately broken engine (negation
// dropped) disagrees with the real one must minimize to a counterexample
// of at most 5 clauses — the smallest program that still exhibits the bug.
func TestShrinkInjectedFault(t *testing.T) {
	prog, goals := workload.DatalogProgram(workload.DatalogConfig{
		Family: workload.FamNegation, Size: 8, Seed: 42,
	})
	goal := goals[1] // unreached(X)
	answers := func(p *datalog.Program) (Result, bool) {
		subs, err := datalog.Query(p, nil, goal)
		if err != nil {
			return Result{}, false
		}
		return substResult(subs), true
	}
	fails := func(p *datalog.Program) bool {
		good, ok1 := answers(p)
		bad, ok2 := answers(dropNegation(p))
		return ok1 && ok2 && !good.Equal(bad)
	}
	if !fails(prog) {
		t.Fatalf("injected fault not observable on the original %d-clause program", len(prog.Clauses))
	}
	minimal := ShrinkDatalog(prog, fails)
	t.Logf("shrunk %d clauses -> %d:\n%s", len(prog.Clauses), len(minimal.Clauses), minimal)
	if !fails(minimal) {
		t.Fatal("shrunk program no longer exhibits the fault")
	}
	if len(minimal.Clauses) > 5 {
		t.Errorf("shrinker left %d clauses, want ≤ 5:\n%s", len(minimal.Clauses), minimal)
	}
	// 1-minimality: removing any single clause must erase the fault.
	for i := range minimal.Clauses {
		sub := &datalog.Program{}
		for j, c := range minimal.Clauses {
			if j != i {
				sub.Add(c)
			}
		}
		if fails(sub) {
			t.Errorf("clause %d is removable; shrink result not 1-minimal", i)
		}
	}
}

// The MultiLog shrinker minimizes over Λ ∪ Σ ∪ Π while the failure
// predicate rejects databases whose construction breaks; here the "fault"
// is simply the presence of a derivable q0 answer, so the minimum is the
// supporting clause set.
func TestShrinkMultiLog(t *testing.T) {
	cases := MultiLogPrograms(3, 4)
	for _, c := range cases {
		if c.QuerySrc != "l1[q0(K: d -C-> V)]" || c.User != "l1" {
			continue
		}
		oracle := MultiLogOracles()[0]
		r, err := oracle.Answer(c.DB, c.User, c.Query)
		if err != nil || r.Len() == 0 {
			continue
		}
		minimal := ShrinkMultiLog(c.DB, func(db *multilog.Database) bool {
			rr, err := oracle.Answer(db, c.User, c.Query)
			return err == nil && rr.Equal(r)
		})
		before, after := ClauseCount(c.DB), ClauseCount(minimal)
		if after > before {
			t.Fatalf("shrinker grew the database: %d -> %d", before, after)
		}
		rr, err := oracle.Answer(minimal, c.User, c.Query)
		if err != nil || !rr.Equal(r) {
			t.Fatalf("shrunk database changed the answer: %v %v", rr, err)
		}
		t.Logf("multilog shrink: %d clauses -> %d", before, after)
		return
	}
	t.Skip("no seeded case with derivable q0 answers at l1; generator drift")
}
