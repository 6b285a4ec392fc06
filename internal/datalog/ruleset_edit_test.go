package datalog_test

// The rule-set edit oracle, in an external test package so it can drive the
// engine over a translated MultiLog program (internal/workload and
// internal/multilog import datalog, so an internal test would cycle).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
	"repro/internal/term"
	"repro/internal/workload"
)

// ruleGen makes random safe rules over a program's predicates and a few
// fresh unary ones: one positive atom binds every variable, a fresh or
// program head takes some of them, and an optional second literal — a
// fresh predicate, positive or negated, or a negated program predicate —
// joins on one. Fresh heads negating one another move strata up and, once
// removals leave them coarse, past the number of predicates.
type ruleGen struct {
	r     *rand.Rand
	preds []string       // the program's predicates, sorted
	arity map[string]int // program predicate -> arity
	heads []string       // the program's rule heads, sorted
}

func newRuleGen(seed int64, p *datalog.Program) *ruleGen {
	g := &ruleGen{r: rand.New(rand.NewSource(seed)), arity: map[string]int{}}
	headSet := map[string]bool{}
	for _, c := range p.Clauses {
		g.arity[c.Head.Pred] = len(c.Head.Args)
		if !c.IsFact() {
			headSet[c.Head.Pred] = true
		}
		for _, l := range c.Body {
			if !l.Atom.IsBuiltin() {
				g.arity[l.Atom.Pred] = len(l.Atom.Args)
			}
		}
	}
	for pred, n := range g.arity {
		if n > 0 {
			g.preds = append(g.preds, pred)
		}
	}
	for pred := range headSet {
		g.heads = append(g.heads, pred)
	}
	sort.Strings(g.preds)
	sort.Strings(g.heads)
	return g
}

func (g *ruleGen) fresh() string { return fmt.Sprintf("x%d", g.r.Intn(6)) }

// atom is pred over variables drawn from vars.
func (g *ruleGen) atom(pred string, n int, vars []term.Term) datalog.Atom {
	args := make([]term.Term, n)
	for i := range args {
		args[i] = vars[g.r.Intn(len(vars))]
	}
	return datalog.NewAtom(pred, args...)
}

func (g *ruleGen) rule() datalog.Clause {
	b := g.preds[g.r.Intn(len(g.preds))]
	vars := make([]term.Term, g.arity[b])
	for i := range vars {
		vars[i] = term.Var(fmt.Sprintf("V%d", i))
	}
	body := []datalog.Literal{datalog.Pos(datalog.NewAtom(b, vars...))}
	switch g.r.Intn(4) {
	case 0:
		body = append(body, datalog.Pos(g.atom(g.fresh(), 1, vars)))
	case 1:
		body = append(body, datalog.Neg(g.atom(g.fresh(), 1, vars)))
	case 2:
		q := g.preds[g.r.Intn(len(g.preds))]
		body = append(body, datalog.Neg(g.atom(q, g.arity[q], vars)))
	}
	if g.r.Intn(5) == 0 {
		h := g.heads[g.r.Intn(len(g.heads))]
		return datalog.Rule(g.atom(h, g.arity[h], vars), body...)
	}
	return datalog.Rule(g.atom(g.fresh(), 1, vars), body...)
}

// without is rules less the first rule equal to each of dels, and how many
// went; as ApplyClauses edits a rule multiset.
func without(rules, dels []datalog.Clause) ([]datalog.Clause, int) {
	out := append([]datalog.Clause(nil), rules...)
	n := 0
	for _, d := range dels {
		for i, c := range out {
			if c.Equal(d) {
				out = append(out[:i], out[i+1:]...)
				n++
				break
			}
		}
	}
	return out, n
}

// TestRuleSetEditMatchesRebuild drives an engine through seeded sequences of
// rule edits over a translated MultiLog program — adds and removes that move
// strata, duplicates, retracts of absent rules and of rules appended since
// the last fold (which net out of the delta), two rules that close a
// negative cycle across two edits, and replacements — long enough for its
// rule set's delta to fold several times. Each edit goes to a clone, as the
// write path applies them. After every edit the live rules equal the
// reference, in order (the order Stratify's error text depends on); every
// lookup equals a full build's over them up to rule ids; the strata are
// valid for them; and model and counts equal a fresh engine's. A refused
// add returns Stratify's exact error and leaves the engine as it was, and
// usable: the next edit goes to the engine that refused.
func TestRuleSetEditMatchesRebuild(t *testing.T) {
	const edits = 200
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
		Levels: 2, Facts: 8, Rules: 3, Preds: 2, Poly: 0.3, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	red, err := multilog.Reduce(db, workload.Level(1))
	if err != nil {
		t.Fatal(err)
	}
	var facts, base []datalog.Clause
	for _, c := range red.Program.Clauses {
		if c.IsFact() {
			facts = append(facts, c)
		} else {
			base = append(base, c)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			editRuleSet(t, seed, edits, red.Program, facts, base)
		})
	}
}

// editRuleSet is one seeded sequence of TestRuleSetEditMatchesRebuild.
func editRuleSet(t *testing.T, seed int64, edits int, p *datalog.Program, facts, base []datalog.Clause) {
	g := newRuleGen(seed, p)
	// What the engine must hold: the reference rules, a full build's lookups
	// over them and a fresh engine's model and counts. A refused edit changes
	// none of it.
	rules := base
	var lookups map[string]string
	var model string
	var counts map[string]int
	rebuild := func(rs []datalog.Clause) error {
		built, err := datalog.RebuiltRuleLookups(rs)
		if err != nil {
			return err
		}
		fresh, err := datalog.NewIncremental(&datalog.Program{Clauses: append(slices.Clip(facts), rs...)}, nil)
		if err != nil {
			t.Fatalf("fresh engine: %v", err)
		}
		rules, lookups, model, counts = rs, built, fresh.Model().String(), fresh.Counts()
		return nil
	}
	if err := rebuild(base); err != nil {
		t.Fatal(err)
	}
	inc, err := datalog.NewIncremental(&datalog.Program{Clauses: append(slices.Clip(facts), base...)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var refused, folds, lifts, absent, appended int
	var cycle datalog.Clause // the closing half of a negative cycle, due next edit
	for e := 0; e < edits; e++ {
		var adds, dels []datalog.Clause
		live := func() datalog.Clause { return rules[g.r.Intn(len(rules))] }
		switch op := g.r.Intn(10); {
		case cycle.Head.Pred != "":
			adds, cycle = []datalog.Clause{cycle}, datalog.Clause{}
		case op < 4:
			adds = []datalog.Clause{g.rule()}
		case op < 6:
			dels = []datalog.Clause{live()}
		case op == 6:
			adds = []datalog.Clause{live()}
		case op == 7 && g.r.Intn(2) == 0:
			dels = []datalog.Clause{g.rule()}
		case op == 7: // the newest rule: most often one the delta appended
			dels = []datalog.Clause{rules[len(rules)-1]}
		case op == 8:
			adds, dels = []datalog.Clause{g.rule(), g.rule()}, []datalog.Clause{live(), live()}
		default:
			a, b := fmt.Sprintf("cyc%da", e), fmt.Sprintf("cyc%db", e)
			v := term.Var("V0")
			dom := g.atom(g.preds[0], g.arity[g.preds[0]], []term.Term{v})
			adds = []datalog.Clause{datalog.Rule(datalog.NewAtom(a, v), datalog.Pos(dom), datalog.Neg(datalog.NewAtom(b, v)))}
			cycle = datalog.Rule(datalog.NewAtom(b, v), datalog.Pos(datalog.NewAtom(a, v)))
		}
		label := fmt.Sprintf("seed %d edit %d: +%v -%v", seed, e, adds, dels)
		before := map[string]int{}
		for _, c := range rules {
			before[c.Head.Pred] = inc.Stratum(c.Head.Pred)
		}
		next, gone := without(rules, dels)
		if len(dels) > 0 && gone == 0 {
			absent++
		}
		if slices.ContainsFunc(dels, inc.RetractsAppended) {
			appended++
		}
		wantErr := rebuild(append(next, adds...)) // Stratify's verdict on the next rules
		inc = inc.Clone()
		res, err := inc.ApplyClauses(ctx, adds, dels)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, want Stratify's %v", label, err, wantErr)
			}
			refused++
		case err != nil:
			t.Fatalf("%s: %v", label, err)
		case res.RulesAdded != len(adds) || res.RulesRemoved != gone:
			t.Fatalf("%s: %d rules added, %d removed, want %d and %d", label, res.RulesAdded, res.RulesRemoved, len(adds), gone)
		}
		if got := inc.Rules(); !slices.EqualFunc(got, rules, datalog.Clause.Equal) {
			t.Fatalf("%s: live rules\n%v\nwant\n%v", label, got, rules)
		}
		if got := inc.RuleLookups(); !reflect.DeepEqual(got, lookups) {
			t.Fatalf("%s: lookups\n%v\nwant a full build's\n%v", label, got, lookups)
		}
		for _, c := range rules {
			for _, l := range c.Body {
				h, b := inc.Stratum(c.Head.Pred), inc.Stratum(l.Atom.Pred)
				if !l.Atom.IsBuiltin() && (h < b || l.Negated && h == b) {
					t.Fatalf("%s: %s breaks the strata: %s at %d, %s at %d", label, c, c.Head.Pred, h, l.Atom.Pred, b)
				}
			}
		}
		if got := inc.Model().String(); got != model {
			t.Fatalf("%s: model\n%s\nwant\n%s", label, got, model)
		}
		if got := inc.Counts(); !reflect.DeepEqual(got, counts) {
			t.Fatalf("%s: counts %v, want %v", label, got, counts)
		}
		if inc.RuleSetFlat() && wantErr == nil {
			folds++
		}
		for pred, s := range before {
			if inc.Stratum(pred) > s {
				lifts++
				break
			}
		}
	}
	t.Logf("%d edits, %d refused, %d retracts of absent rules, %d of rules appended since the last fold, %d lifted a stratum, %d left a flat rule set",
		edits, refused, absent, appended, lifts, folds)
	if refused == 0 || absent == 0 || appended == 0 || lifts == 0 || folds < 3 {
		t.Errorf("the edits missed a case: %d refused, %d absent, %d appended retracted, %d lifts, %d flat",
			refused, absent, appended, lifts, folds)
	}
}
