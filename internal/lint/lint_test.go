package lint

import (
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
)

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDeadRulesTransitive(t *testing.T) {
	p := mustParse(t, `
		p(a).
		ghost(X) :- phantom(X).
		spectre(X) :- ghost(X), p(X).
		live(X) :- p(X).
	`)
	dead := DeadRules(p)
	if len(dead) != 2 {
		t.Fatalf("DeadRules = %v, want the ghost and spectre rules (2 indices)", dead)
	}
	for _, i := range dead {
		head := p.Clauses[i].Head.Pred
		if head != "ghost" && head != "spectre" {
			t.Errorf("rule %d (%s) marked dead; want only ghost and spectre", i, p.Clauses[i])
		}
	}
}

func TestDeadRulesNegationDoesNotGate(t *testing.T) {
	// A negated literal over an underivable predicate succeeds under NAF,
	// so it must not make the rule dead.
	p := mustParse(t, `
		p(a).
		q(X) :- p(X), not phantom(X).
	`)
	if dead := DeadRules(p); len(dead) != 0 {
		t.Fatalf("DeadRules = %v, want none: negation never gates support", dead)
	}
}

func TestSubsumption(t *testing.T) {
	parse := func(s string) datalog.Clause {
		c, err := datalog.ParseClause(s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	general := parse("q(X) :- p(X).")
	specific := parse("q(X) :- p(X), r(X).")
	if !subsumes(general, specific) {
		t.Error("q(X) :- p(X) must subsume q(X) :- p(X), r(X)")
	}
	if subsumes(specific, general) {
		t.Error("the longer clause must not subsume the shorter one")
	}
	ground := parse("q(a) :- p(a).")
	if !subsumes(general, ground) {
		t.Error("the general clause must subsume its ground instance")
	}
	if subsumes(ground, general) {
		t.Error("a ground clause must not subsume the general one")
	}
	// Reordered bodies subsume each other (mutual): reported as duplicates.
	ab := parse("q(X) :- p(X), r(X).")
	ba := parse("q(X) :- r(X), p(X).")
	if !subsumes(ab, ba) || !subsumes(ba, ab) {
		t.Error("reordered bodies must mutually subsume")
	}
}

func TestDuplicateUpToReordering(t *testing.T) {
	p := mustParse(t, `
		p(a). r(a).
		q(X) :- p(X), r(X).
		q(Y) :- r(Y), p(Y).
	`)
	r := &reporter{}
	lintDatalogDuplicates(r, p)
	if len(r.diags) != 1 || r.diags[0].Code != "DL005" {
		t.Fatalf("got %v, want one DL005 for the reordered duplicate", r.diags)
	}
}

func TestFromParseError(t *testing.T) {
	_, err := datalog.Parse("p(a.")
	if err == nil {
		t.Fatal("want parse error")
	}
	d := FromParseError("x.dl", err)
	if d.Code != "DL000" || d.Pos.Line != 1 || d.Pos.Col == 0 {
		t.Fatalf("FromParseError = %+v, want DL000 with position on line 1", d)
	}
	_, err = multilog.Parse("level(u")
	if err == nil {
		t.Fatal("want parse error")
	}
	d = FromParseError("x.mlg", err)
	if d.Code != "ML000" || !d.Pos.IsValid() {
		t.Fatalf("FromParseError = %+v, want positioned ML000", d)
	}
}

func TestDiagnosticsSortAndErrors(t *testing.T) {
	ds := Diagnostics{
		{Code: "DL007", Severity: Warning, Pos: datalog.Position{Line: 3, Col: 1}},
		{Code: "DL001", Severity: Error, Pos: datalog.Position{Line: 1, Col: 5}},
		{Code: "DL004", Severity: Error, Pos: datalog.Position{Line: 1, Col: 2}},
	}
	ds.Sort()
	if ds[0].Code != "DL004" || ds[1].Code != "DL001" || ds[2].Code != "DL007" {
		t.Fatalf("sort order wrong: %v", ds)
	}
	if !ds.HasErrors() {
		t.Fatal("HasErrors must be true")
	}
	if (Diagnostics{{Severity: Warning}}).HasErrors() {
		t.Fatal("warnings alone are not errors")
	}
}

func TestPassCatalogCoversAllCodes(t *testing.T) {
	catalog := map[string]bool{}
	for _, pi := range Passes() {
		catalog[pi.Code] = true
	}
	for _, code := range []string{"DL000", "DL001", "DL002", "DL003", "DL004", "DL005", "DL006", "DL007", "DL008", "ML000", "ML001", "ML002", "ML003", "ML004", "ML009"} {
		if !catalog[code] {
			t.Errorf("pass catalog missing %s", code)
		}
	}
}

func TestUserModeViaBelFacts(t *testing.T) {
	// A non-built-in mode defined by Figure 13 bel/7 facts is not ML002.
	db, err := multilog.Parse(`
		level(u).
		u[p(k: a -u-> v)].
		bel(p, k, a, v, u, u, rumor).
		u[q(k: a -u-> w)] :- u[p(k: a -u-> v)] << rumor.
	`)
	if err != nil {
		t.Fatal(err)
	}
	diags := MultiLog(db, Options{})
	for _, d := range diags {
		if d.Code == "ML002" {
			t.Fatalf("mode rumor is defined by bel/7 facts, got %s", d)
		}
	}
	// The same program without the bel fact is flagged.
	db2, err := multilog.Parse(`
		level(u).
		u[p(k: a -u-> v)].
		u[q(k: a -u-> w)] :- u[p(k: a -u-> v)] << rumor.
	`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range MultiLog(db2, Options{}) {
		found = found || d.Code == "ML002"
	}
	if !found {
		t.Fatal("undefined mode rumor must be ML002")
	}
	// Registering the mode in Options also silences it.
	for _, d := range MultiLog(db2, Options{Modes: []multilog.Mode{"rumor"}}) {
		if d.Code == "ML002" {
			t.Fatalf("registered mode rumor must not be flagged, got %s", d)
		}
	}
}

func TestSourceUnknownLanguage(t *testing.T) {
	if _, err := Source("prolog", "p(a).", Options{}); err == nil || !strings.Contains(err.Error(), "unknown language") {
		t.Fatalf("want unknown-language error, got %v", err)
	}
}
