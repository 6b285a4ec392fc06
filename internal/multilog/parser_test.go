package multilog

import (
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/term"
)

func mustParseML(t *testing.T, src string) *Database {
	t.Helper()
	db, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return db
}

func TestParseD1Structure(t *testing.T) {
	db := D1()
	if len(db.Lambda) != 5 {
		t.Errorf("Λ should have 5 clauses (r1-r5), got %d", len(db.Lambda))
	}
	if len(db.Sigma) != 3 {
		t.Errorf("Σ should have 3 clauses (r6-r8), got %d", len(db.Sigma))
	}
	if len(db.Pi) != 1 {
		t.Errorf("Π should have 1 clause (r9), got %d", len(db.Pi))
	}
	// r8 has a cautious b-atom body.
	r8 := db.Sigma[2]
	if len(r8.Body) != 1 || r8.Body[0].Kind != GoalB || r8.Body[0].Mode != ModeCau {
		t.Errorf("r8 parsed wrong: %s", r8)
	}
}

func TestParseMAtomParts(t *testing.T) {
	db := mustParseML(t, `s[mission(avenger: objective -s-> shipping)].`)
	if len(db.Sigma) != 1 {
		t.Fatalf("Sigma = %v", db.Sigma)
	}
	m := db.Sigma[0].Head.M
	if m.Pred != "mission" || m.Attr != "objective" {
		t.Errorf("atom parts: %+v", m)
	}
	if !m.Level.Equal(term.Const("s")) || !m.Key.Equal(term.Const("avenger")) ||
		!m.Class.Equal(term.Const("s")) || !m.Value.Equal(term.Const("shipping")) {
		t.Errorf("atom terms: %s", m)
	}
}

// Example 5.1: molecules split into one clause per field.
func TestParseMoleculeHeadSplits(t *testing.T) {
	db := mustParseML(t, `
		s[mission(avenger: starship -s-> avenger; objective -s-> shipping; destination -s-> pluto)].
	`)
	if len(db.Sigma) != 3 {
		t.Fatalf("molecule should split into 3 atomic clauses, got %d", len(db.Sigma))
	}
	attrs := map[string]bool{}
	for _, c := range db.Sigma {
		attrs[c.Head.M.Attr] = true
		if !c.Head.M.Key.Equal(term.Const("avenger")) {
			t.Errorf("molecule key lost: %s", c)
		}
	}
	for _, a := range []string{"starship", "objective", "destination"} {
		if !attrs[a] {
			t.Errorf("missing attribute %s", a)
		}
	}
}

func TestParseMoleculeBodyExpands(t *testing.T) {
	db := mustParseML(t, `
		c[q(k: a -c-> yes)] :- u[p(k: a -u-> x; b -u-> y)] << opt.
	`)
	c := db.Sigma[0]
	if len(c.Body) != 2 {
		t.Fatalf("body molecule should expand to 2 goals, got %d", len(c.Body))
	}
	for _, g := range c.Body {
		if g.Kind != GoalB || g.Mode != ModeOpt {
			t.Errorf("expanded goal should keep the belief mode: %s", g)
		}
	}
}

func TestParseDontCareArrow(t *testing.T) {
	db := mustParseML(t, `?- c[mission(phantom: objective -> X)] << cau.`)
	g := db.Queries[0][0]
	if !g.M.Class.IsVar() {
		t.Errorf("don't-care arrow should produce a fresh class variable: %s", g)
	}
}

func TestParseVariableLevelAndClass(t *testing.T) {
	db := mustParseML(t, `?- L[p(k: a -C-> V)].`)
	g := db.Queries[0][0]
	if !g.M.Level.IsVar() || !g.M.Class.IsVar() || !g.M.Value.IsVar() {
		t.Errorf("variables lost: %s", g)
	}
}

func TestParseClassicalClausesAndBuiltins(t *testing.T) {
	db := mustParseML(t, `
		p(a, b).
		q(X) :- p(X, Y), X != Y.
		r(X) :- p(X, Y), Z = f(Y), p(Z, X).
	`)
	if len(db.Pi) != 3 {
		t.Fatalf("Pi = %d", len(db.Pi))
	}
}

func TestParseRouting(t *testing.T) {
	db := mustParseML(t, `
		level(u).
		order(u, c).
		u[p(k: a -u-> v)].
		q(x).
	`)
	if len(db.Lambda) != 2 || len(db.Sigma) != 1 || len(db.Pi) != 1 {
		t.Errorf("routing wrong: Λ=%d Σ=%d Π=%d", len(db.Lambda), len(db.Sigma), len(db.Pi))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`u[p(k: a -u-> v)] << fir.`,   // b-atom head
		`u[p(k: a -u-> v)`,            // unterminated
		`u[p(k a -u-> v)].`,           // missing colon
		`u[p(k: a v)].`,               // missing arrow
		`?- u[p(k: a -u-> v)] << .`,   // missing mode
		`u[p(k: a -u-> v)] :- X != Y`, // missing dot
		`X = Y.`,                      // builtin head
		`u[p(k: a -u-> 'v)].`,         // unterminated quote
		`u[p(k: a <- v)].`,            // bogus token
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := `level(u).
order(u, c).
u[p(k: a -u-> v)].
c[p(k: a -c-> t)] :- q(j), u[p(k: a -u-> V)] << opt.
q(j).
?- c[p(k: a -R-> v)] << opt.
`
	db := mustParseML(t, src)
	again := mustParseML(t, db.String())
	if db.String() != again.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", db, again)
	}
	if !strings.Contains(db.String(), "<< opt") {
		t.Errorf("rendering lost belief mode:\n%s", db)
	}
}

func TestParseGoalsHelper(t *testing.T) {
	goals, err := ParseGoals(`c[p(k: a -R-> v)] << opt, q(X)`)
	if err != nil || len(goals) != 2 {
		t.Fatalf("ParseGoals: %v %v", goals, err)
	}
	if _, err := ParseGoals(`q(X) extra`); err == nil {
		t.Error("trailing input must fail")
	}
}

func TestASTHelpers(t *testing.T) {
	m := MAtom{Level: term.Const("s"), Pred: "p", Key: term.Const("k"),
		Attr: "a", Class: term.Const("s"), Value: term.Const("v")}
	if !m.IsGround() {
		t.Error("ground atom misreported")
	}
	m.Value = term.Var("V")
	if m.IsGround() {
		t.Error("non-ground atom misreported")
	}
	mol := Molecule{Level: term.Const("s"), Pred: "p", Key: term.Const("k"),
		Fields: []Field{{Attr: "a", Class: term.Const("s"), Value: term.Const("v")},
			{Attr: "b", Class: term.Const("u"), Value: term.Const("w")}}}
	if got := mol.String(); got != "s[p(k: a -s-> v; b -u-> w)]" {
		t.Errorf("Molecule.String = %q", got)
	}
	q := Query{MGoal(m)}
	if !strings.HasPrefix(q.String(), "?- ") || !strings.HasSuffix(q.String(), ".") {
		t.Errorf("Query.String = %q", q.String())
	}
}

// TestSyntaxErrorGoldens pins message, line and column of syntax errors
// across the two front-ends of the shared lexer and term grammar: each
// MultiLog-only token is still an error in Datalog source, "not" is an
// ordinary identifier in MultiLog (Π is positive), and the shared grammar
// reports the same text under either language tag.
func TestSyntaxErrorGoldens(t *testing.T) {
	for _, tc := range []struct{ lang, src, want string }{
		{"datalog", "p(a) :- q[b].", `datalog: 1:10: unexpected character '['`},
		{"datalog", "p(a) :- q]b.", `datalog: 1:10: unexpected character ']'`},
		{"datalog", "p(a) :-\n q(b); r(c).", `datalog: 2:6: unexpected character ';'`},
		{"datalog", "p(k: a).", `datalog: 1:4: unexpected ':'; did you mean ':-'?`},
		{"datalog", "p(a) << opt.", `datalog: 1:6: unexpected character '<'`},
		{"datalog", "p(a -u-> v).", `datalog: 1:5: unexpected character '-'`},
		{"datalog", "p(a -> v).", `datalog: 1:5: unexpected character '-'`},
		{"datalog", "p(a) :- not X != Y.", `datalog: 1:19: negating a built-in is not supported; use the dual operator`},
		{"multilog", "q :- not p.", `multilog: 1:10: expected '.', found identifier "p"`},
		{"multilog", "u[p(k: a <- v)].", `multilog: 1:10: unexpected '<'; did you mean '<<'?`},
		{"multilog", "u[p(k a -u-> v)].", `multilog: 1:7: expected ':', found identifier "a"`},
		{"multilog", "u[p(k: a -u-> v)", `multilog: 1:17: expected ']', found end of input ""`},
		{"multilog", "?- u[p(k: a -u-> v)] << .", `multilog: 1:25: expected belief mode after '<<', found '.' "."`},
		{"multilog", "p(a) ? q(b).", `multilog: 1:6: unexpected '?'; did you mean '?-'?`},
	} {
		var err error
		if tc.lang == "datalog" {
			_, err = datalog.Parse(tc.src)
		} else {
			_, err = Parse(tc.src)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s Parse(%q) = %v, want %s", tc.lang, tc.src, err, tc.want)
		}
	}
	// The shared grammar fails identically, language tag aside.
	for _, src := range []string{"p(a", "p(a) :- q(b)", "p(a). q(", ":- p(a).", "X = Y.", "p('unterminated.", "p(a)!", "p(f(X) = ).", "p(a) :- X."} {
		_, derr := datalog.Parse(src)
		_, merr := Parse(src)
		if derr == nil || merr == nil {
			t.Errorf("Parse(%q) must fail in both languages: datalog %v, multilog %v", src, derr, merr)
			continue
		}
		d := strings.TrimPrefix(derr.Error(), "datalog: ")
		m := strings.TrimPrefix(merr.Error(), "multilog: ")
		// The two top-level grammars name what they expected differently.
		m = strings.Replace(m, "expected goal", "expected atom", 1)
		if d != m {
			t.Errorf("Parse(%q): datalog says %q, multilog says %q", src, d, m)
		}
	}
	// "not" is Datalog's keyword only.
	db, err := Parse("not(a). q(X) :- not(X), 'not'(X).")
	if err != nil {
		t.Fatalf("not as a MultiLog identifier: %v", err)
	}
	if len(db.Pi) != 2 || db.Pi[0].Head.P.Pred != "not" || db.Pi[1].Body[0].P.Pred != "not" {
		t.Errorf("not(a) must be an ordinary p-atom, got %s", db)
	}
}
