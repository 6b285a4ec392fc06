package analysis

import (
	"testing"

	"repro/internal/datalog"
)

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestCostCartesian(t *testing.T) {
	p := mustParse(t, `
		a(1). b(2).
		pair(X, Y) :- a(X), b(Y).
		joined(X) :- a(X), b(X).
	`)
	cost := AnalyzeCost(p, CostOptions{})
	if len(cost.Cartesian) != 1 {
		t.Fatalf("want 1 cartesian site, got %+v", cost.Cartesian)
	}
	site := cost.Cartesian[0]
	if site.Head != "pair" || len(site.Groups) != 2 {
		t.Errorf("cartesian site = %+v", site)
	}
}

// TestCostCartesianIgnoresGroundLiterals pins that zero-variable body
// literals are existence filters, not product factors.
func TestCostCartesianIgnoresGroundLiterals(t *testing.T) {
	p := mustParse(t, `
		flag(on). a(1).
		gated(X) :- flag(on), a(X).
	`)
	if cost := AnalyzeCost(p, CostOptions{}); len(cost.Cartesian) != 0 {
		t.Errorf("ground guard should not be a cartesian factor: %+v", cost.Cartesian)
	}
}

// TestCostNonlinear pins that DL010 leaves linear transitive closure
// alone: its recursive rule has one literal in tc's own component.
func TestCostNonlinear(t *testing.T) {
	linear := mustParse(t, `
		edge(a, b). edge(b, c).
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- edge(X, Y), tc(Y, Z).
		?- tc(a, W).
	`)
	if sites := Nonlinear(linear); len(sites) != 0 {
		t.Errorf("linear tc flagged nonlinear: %+v", sites)
	}
}

// TestAdornNonlinear pins nonlinear-recursion detection on the classic
// doubled transitive closure: one site, the doubled rule, with both tc
// literals listed.
func TestAdornNonlinear(t *testing.T) {
	doubled := mustParse(t, `
		edge(a, b).
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), tc(Y, Z).
		?- tc(a, W).
	`)
	sites := Nonlinear(doubled)
	if len(sites) != 1 || sites[0].Head != "tc" || sites[0].Clause != 2 || len(sites[0].Recursive) != 2 {
		t.Errorf("nonlinear sites = %+v", sites)
	}
}

// TestCostFanout pins the first-order size estimate: a three-way
// cross-ish join of 10-fact relations estimates 1000 rows and trips the
// default threshold, while the recursive rule stays finite because the
// recursive literal contributes its base size, not its closure.
func TestCostFanout(t *testing.T) {
	src := ""
	for i := 0; i < 10; i++ {
		src += "r1(a" + string(rune('0'+i)) + ", x). r2(b" + string(rune('0'+i)) + ", x). r3(c" + string(rune('0'+i)) + ", x).\n"
	}
	src += "wide(A, B, C) :- r1(A, X), r2(B, X), r3(C, X).\n"
	src += "tc(X, Y) :- r1(X, Y).\n"
	src += "tc(X, Z) :- r1(X, Y), tc(Y, Z).\n"
	p := mustParse(t, src)
	cost := AnalyzeCost(p, CostOptions{})
	if len(cost.Fanout) != 1 || cost.Fanout[0].Head != "wide" {
		t.Fatalf("fanout sites = %+v", cost.Fanout)
	}
	if got := cost.Fanout[0].Estimate; got != 1000 {
		t.Errorf("wide estimate = %d, want 1000", got)
	}
	if got := cost.Sizes["tc"]; got <= 0 || got > 100 {
		t.Errorf("recursive tc estimate should stay first-order, got %d", got)
	}
	// Raising the threshold suppresses the finding.
	if c2 := AnalyzeCost(p, CostOptions{FanoutThreshold: 10000}); len(c2.Fanout) != 0 {
		t.Errorf("threshold 10000 should suppress the finding: %+v", c2.Fanout)
	}
}
