package differential

import (
	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
)

// TB is the subset of *testing.T the assert helpers need, kept as an
// interface so this non-test file does not import package testing.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// AssertDatalogAgreement parses a Datalog program and a query goal and
// fails the test unless every oracle agrees. Emitted regression tests call
// this, so a found counterexample stays one paste away from CI.
func AssertDatalogAgreement(t TB, src, querySrc string) {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse program: %v", err)
	}
	goal, err := datalog.ParseAtom(querySrc)
	if err != nil {
		t.Fatalf("parse goal %q: %v", querySrc, err)
	}
	names, outs := runDatalogOracles(p, goal)
	if bad := compareOutcomes(names, outs); len(bad) > 0 {
		t.Fatalf("oracles disagree on %s:\n%s", querySrc, renderOutcomes(names, outs))
	}
}

// AssertMultiLogAgreement parses a MultiLog database and a query and fails
// the test unless the operational prover and the reduction agree at the
// given user level (Theorem 6.1 on one concrete instance).
func AssertMultiLogAgreement(t TB, src, user, querySrc string) {
	t.Helper()
	db, err := multilog.Parse(src)
	if err != nil {
		t.Fatalf("parse database: %v", err)
	}
	q, err := multilog.ParseGoals(querySrc)
	if err != nil {
		t.Fatalf("parse query %q: %v", querySrc, err)
	}
	names, outs := runMultiLogOracles(MultiLogOracles(), db, lattice.Label(user), q)
	if bad := compareOutcomes(names, outs); len(bad) > 0 {
		t.Fatalf("semantics disagree on %s at user %s:\n%s", querySrc, user, renderOutcomes(names, outs))
	}
}

func renderOutcomes(names []string, outs []outcome) string {
	out := ""
	for i, n := range names {
		out += "  " + n + ": " + outs[i].String() + "\n"
	}
	return out
}
