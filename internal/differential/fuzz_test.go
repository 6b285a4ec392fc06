package differential

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/term"
)

// FuzzParseDatalog checks the Datalog parser never panics and that whatever
// it accepts round-trips: the printed form must reparse to the same printed
// form (printing is the canonical form, so one round is a fixpoint).
func FuzzParseDatalog(f *testing.F) {
	f.Add("p(a).\nq(X) :- p(X).")
	f.Add("tc(X, Z) :- e(X, Y), tc(Y, Z).\n?- tc(a, Z).")
	f.Add("r(X) :- n(X), not m(X), X != a.")
	f.Add("p(f(g(a), X)).")
	f.Add("% comment\np().")
	f.Add("p(a) :- .")
	f.Add("p('unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := datalog.Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		p2, err := datalog.Parse(printed)
		if err != nil {
			t.Fatalf("accepted program does not reparse: %v\noriginal: %q\nprinted:\n%s", err, src, printed)
		}
		if got := p2.String(); got != printed {
			t.Fatalf("print/parse/print not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, got)
		}
		if err := frontEndsAgree(src, p); err != nil {
			t.Fatalf("%v\nsource: %q", err, src)
		}
	})
}

// frontEndsAgree is Proposition 6.1 at the syntax level: a negation-free
// Datalog program, already parsed from src into p, is a MultiLog database
// with empty security components, so multilog.Parse must accept src and
// yield the same atoms — equal rendering, equal positions — clause for
// clause and goal for goal. (MultiLog routes level/order heads to Λ and the
// rest to Π, keeping source order within each.) Programs with negation are
// outside the proposition: Π is positive.
func frontEndsAgree(src string, p *datalog.Program) error {
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Negated {
				return nil
			}
		}
	}
	db, err := multilog.Parse(src)
	if err != nil {
		return fmt.Errorf("Datalog accepts what MultiLog rejects: %w", err)
	}
	if len(db.Sigma) > 0 {
		return fmt.Errorf("Datalog source parsed to m-clauses:\n%s", db)
	}
	same := func(what string, g multilog.Goal, a datalog.Atom) error {
		if g.Kind == multilog.GoalM || g.Kind == multilog.GoalB {
			return fmt.Errorf("%s: p-atom %s parsed as %s", what, a, g)
		}
		if g.P.String() != a.String() || g.P.Pos != a.Pos || g.Pos != a.Pos {
			return fmt.Errorf("%s: datalog %s at %s, multilog %s at %s/%s", what, a, a.Pos, g.P, g.P.Pos, g.Pos)
		}
		return nil
	}
	lambda, pi := db.Lambda, db.Pi
	for i, c := range p.Clauses {
		from := &pi
		if c.Head.Pred == "level" || c.Head.Pred == "order" {
			from = &lambda
		}
		if len(*from) == 0 {
			return fmt.Errorf("clause %d (%s) has no MultiLog counterpart in\n%s", i, c, db)
		}
		mc := (*from)[0]
		*from = (*from)[1:]
		if err := same(fmt.Sprintf("clause %d head", i), mc.Head, c.Head); err != nil {
			return err
		}
		if len(mc.Body) != len(c.Body) {
			return fmt.Errorf("clause %d: %d body goals, want %d", i, len(mc.Body), len(c.Body))
		}
		for j, l := range c.Body {
			if err := same(fmt.Sprintf("clause %d body %d", i, j), mc.Body[j], l.Atom); err != nil {
				return err
			}
		}
	}
	if len(lambda)+len(pi) > 0 || len(db.Queries) != len(p.Queries) {
		return fmt.Errorf("MultiLog parsed extra clauses or queries:\n%s", db)
	}
	for i, q := range p.Queries {
		if len(db.Queries[i]) != 1 {
			return fmt.Errorf("query %d: %d goals, want 1", i, len(db.Queries[i]))
		}
		if err := same(fmt.Sprintf("query %d", i), db.Queries[i][0], q); err != nil {
			return err
		}
	}
	return nil
}

// TestFrontEndAgreement runs frontEndsAgree over every Datalog program of
// the shipped corpora: examples/programs, the lint golden corpus, and the
// figure corpus (D1 reduced at every level, with and without the Figure 13
// filter). A program with negation contributes its negation-free clauses,
// re-rendered, so every corpus program exercises the shared grammar.
func TestFrontEndAgreement(t *testing.T) {
	sources := map[string]string{
		"compound-left infix": "p(Y) :- q(X), f(X) = Y.\nr(X) :- q(X), g(X, a) != X.",
		"quoted and null":     "p('two words', null, 42).\n'Q'(X) :- p(X, _Y, _), X != 'not'.\n?- p(A, null, B).",
		"propositional":       "p.\nq() :- p, r().\n?- q.",
		"lambda heads":        "level(u). p(a). order(u, c) :- level(u), p(X). level(c).",
	}
	for _, glob := range []string{"../../examples/programs/*.dl", "../lint/testdata/*.dl"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("corpus %s: %d files, err %v", glob, len(files), err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sources[f] = string(b)
		}
	}
	for _, u := range []lattice.Label{lattice.Unclassified, lattice.Classified, lattice.Secret} {
		for _, filter := range []bool{false, true} {
			red, err := multilog.ReduceOpts(multilog.D1(), u, multilog.Options{Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
			sources[fmt.Sprintf("D1 reduced at %s, filter=%v", u, filter)] = red.Program.String()
		}
	}
	checked := 0
	for name, src := range sources {
		p, err := datalog.Parse(src)
		if err != nil {
			continue // the lint corpus keeps a deliberately malformed file
		}
		positive := &datalog.Program{Queries: p.Queries}
		for _, c := range p.Clauses {
			negated := false
			for _, l := range c.Body {
				negated = negated || l.Negated
			}
			if !negated {
				positive.Add(c)
			}
		}
		if len(positive.Clauses) != len(p.Clauses) {
			src = positive.String()
			if p, err = datalog.Parse(src); err != nil {
				t.Fatalf("%s: negation-free part does not reparse: %v", name, err)
			}
		}
		if err := frontEndsAgree(src, p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		checked += len(p.Clauses)
	}
	if checked < 100 {
		t.Fatalf("front-end agreement covered only %d clauses", checked)
	}
}

// FuzzParseMultiLog checks the MultiLog parser never panics and that
// accepted databases round-trip through Database.String.
func FuzzParseMultiLog(f *testing.F) {
	f.Add("level(u).\nu[p(k: a -u-> v)].")
	f.Add("level(u). level(s). order(u, s).\ns[p(k: a -u-> v)] :- u[p(k: a -u-> v)] << cau.")
	f.Add("?- L[p(K: a -C-> V)] << opt.")
	f.Add("u[p(k: a -u-> 'oops)]")
	f.Add("u[p(: -> )].")
	f.Fuzz(func(t *testing.T, src string) {
		db, err := multilog.Parse(src)
		if err != nil {
			return
		}
		printed := db.String()
		db2, err := multilog.Parse(printed)
		if err != nil {
			t.Fatalf("accepted database does not reparse: %v\noriginal: %q\nprinted:\n%s", err, src, printed)
		}
		if got := db2.String(); got != printed {
			t.Fatalf("print/parse/print not a fixpoint:\nfirst:\n%s\nsecond:\n%s", printed, got)
		}
	})
}

// fuzzableDatalog reports whether a parsed program is safe to hand to every
// oracle with a termination guarantee: validated (range-restricted,
// stratified), compound-free (compound terms make the Herbrand universe
// infinite, so bottom-up evaluation need not terminate), and small enough
// that the slowest engine stays inside the fuzz iteration budget.
func fuzzableDatalog(p *datalog.Program) bool {
	if len(p.Clauses) > 20 || datalog.Validate(p) != nil {
		return false
	}
	// Validate checks safety but not stratifiability; an unstratifiable
	// program is outside the engines' shared contract (bottom-up rejects it
	// whole, goal-directed engines can still answer goals that avoid the
	// bad cycle), so it is not a differential case.
	if _, err := datalog.Strata(p); err != nil {
		return false
	}
	atomOK := func(a datalog.Atom) bool {
		if len(a.Args) > 4 {
			return false
		}
		for _, t := range a.Args {
			if t.Kind() == term.KindCompound {
				return false
			}
		}
		return true
	}
	for _, c := range p.Clauses {
		if len(c.Body) > 5 || !atomOK(c.Head) {
			return false
		}
		for _, l := range c.Body {
			if !atomOK(l.Atom) {
				return false
			}
		}
	}
	for _, q := range p.Queries {
		if !atomOK(q) {
			return false
		}
	}
	return true
}

// FuzzCrossEngine is the differential fuzz target: any parseable, validated,
// compound-free Datalog program the fuzzer invents is cross-checked over all
// six evaluation strategies. Queries come from the program's own ?- goals
// when present, plus an open goal per derived predicate.
func FuzzCrossEngine(f *testing.F) {
	f.Add("e(a, b). e(b, c). e(c, a).\ntc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n?- tc(a, X).")
	f.Add("node(a). node(b). e(a, b).\nreach(X) :- e(a, X).\nreach(Y) :- reach(X), e(X, Y).\nunreached(X) :- node(X), not reach(X).")
	f.Add("p(a). p(b). q(a).\nr(X, Y) :- p(X), p(Y), X != Y, not q(X).")
	f.Add("par(a, b). par(b, c).\nsg(X, X) :- par(X, Y).\nsg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n?- sg(a, Y).")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := datalog.Parse(src)
		if err != nil || !fuzzableDatalog(p) {
			return
		}
		goals := append([]datalog.Atom(nil), p.Queries...)
		seen := map[string]bool{}
		for _, c := range p.Clauses {
			if len(c.Body) == 0 {
				continue // facts answer trivially; derived predicates are the interesting ones
			}
			key := c.Head.Pred
			if seen[key] {
				continue
			}
			seen[key] = true
			args := make([]term.Term, len(c.Head.Args))
			for i := range args {
				args[i] = term.Var(freshVarName(i))
			}
			goals = append(goals, datalog.NewAtom(c.Head.Pred, args...))
		}
		oracles := DatalogOracles()
		for _, g := range goals {
			names, outs := runDatalogOracles(oracles, p, g)
			if bad := compareOutcomes(names, outs); len(bad) > 0 {
				minimal := ShrinkDatalog(p, func(sp *datalog.Program) bool {
					return datalogDisagrees(sp, g)
				})
				t.Fatalf("oracles %v disagree on %s\nminimal program:\n%s\noutcomes:\n%s",
					bad, g, minimal, renderOutcomes(runDatalogOracles(DatalogOracles(), minimal, g)))
			}
		}
	})
}

func freshVarName(i int) string {
	return "FZ" + strings.Repeat("Z", i%5) + string(rune('A'+i%26))
}
