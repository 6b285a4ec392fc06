package differential

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/datalog"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/term"
)

// Metamorphic properties: relations between answers of *related* cases that
// must hold even when no second engine is available to compare against.

// hasNegation reports whether any clause body contains a negated literal.
func hasNegation(p *datalog.Program) bool {
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Negated {
				return true
			}
		}
	}
	return false
}

// CheckMonotonicity checks fact-addition monotonicity: for a program
// without negation, adding fresh EDB facts can only grow the answer set.
// r drives which facts are added; the property is violated iff some
// original answer disappears.
func CheckMonotonicity(p *datalog.Program, goal datalog.Atom, r *rand.Rand) error {
	if hasNegation(p) {
		return nil // negation is deliberately non-monotone
	}
	before, err := datalog.Query(p, nil, goal)
	if err != nil {
		return nil // invalid program: nothing to check
	}
	// EDB predicates = those appearing only as facts; add 1-3 fresh facts.
	idb := map[string]bool{}
	for _, c := range p.Clauses {
		if !c.IsFact() {
			idb[c.Head.Pred] = true
		}
	}
	var edb []datalog.Atom
	for _, c := range p.Clauses {
		if c.IsFact() && !idb[c.Head.Pred] {
			edb = append(edb, c.Head)
		}
	}
	if len(edb) == 0 {
		return nil
	}
	grown := &datalog.Program{Clauses: append([]datalog.Clause(nil), p.Clauses...), Queries: p.Queries}
	for i := 0; i < 1+r.Intn(3); i++ {
		tmpl := edb[r.Intn(len(edb))]
		args := make([]term.Term, len(tmpl.Args))
		for j := range args {
			args[j] = term.Const(fmt.Sprintf("fresh%d_%d", i, j))
		}
		grown.Add(datalog.Fact(datalog.Atom{Pred: tmpl.Pred, Args: args}))
	}
	after, err := datalog.Query(grown, nil, goal)
	if err != nil {
		return fmt.Errorf("differential: monotonicity: grown program failed: %w", err)
	}
	if !substResult(before).Subset(substResult(after)) {
		return fmt.Errorf("differential: monotonicity violated on %s:\nbefore: %s\nafter:  %s\nprogram:\n%s",
			goal, substResult(before), substResult(after), p)
	}
	return nil
}

// CheckDeadRules cross-validates the linter's dead-rule analysis (DL007)
// against every engine: a rule lint.DeadRules marks dead must never fire,
// so deleting all of them leaves each oracle's verdict — answers or
// rejection — unchanged. A disagreement means either the support fixpoint
// is unsound (it killed a live rule) or an engine derives through an
// unsupported premise.
func CheckDeadRules(p *datalog.Program, goal datalog.Atom) error {
	dead := lint.DeadRules(p)
	if len(dead) == 0 {
		return nil
	}
	isDead := map[int]bool{}
	for _, i := range dead {
		isDead[i] = true
	}
	pruned := &datalog.Program{Queries: p.Queries}
	for i, c := range p.Clauses {
		if !isDead[i] {
			pruned.Add(c)
		}
	}
	names, before := runDatalogOracles(DatalogOracles(), p, goal)
	_, after := runDatalogOracles(DatalogOracles(), pruned, goal)
	for i := range names {
		b, a := before[i], after[i]
		if errors.Is(b.err, ErrUnsupported) || errors.Is(a.err, ErrUnsupported) {
			continue
		}
		if (b.err == nil) != (a.err == nil) {
			return fmt.Errorf("differential: dead-rule soundness violated on %s: %s said %s with the full program but %s without the %d lint-dead rule(s)\nprogram:\n%s",
				goal, names[i], b, a, len(dead), p)
		}
		if b.err == nil && !b.result.Equal(a.result) {
			return fmt.Errorf("differential: dead-rule soundness violated on %s: %s answers %s with the full program, %s without the %d lint-dead rule(s)\nprogram:\n%s",
				goal, names[i], b.result, a.result, len(dead), p)
		}
	}
	return nil
}

// CheckDominanceCoherence checks view coherence under label dominance: for
// every pair of user levels u ⪯ u', the answers visible at u are a subset
// of those visible at u' — raising clearance only relaxes the Bell-LaPadula
// guards, it never hides a tuple. reference is the reduction oracle
// (MultiLogOracles()[0]), which may keep c.DB's reductions across calls.
func CheckDominanceCoherence(c MultiLogCase, reference MultiLogOracle) error {
	poset, err := c.DB.Poset()
	if err != nil {
		return nil
	}
	answers := map[string]Result{}
	for _, u := range poset.Labels() {
		r, err := reference.Answer(c.DB, u, c.Query)
		if err != nil {
			return fmt.Errorf("differential: dominance coherence: user %s: %w", u, err)
		}
		answers[string(u)] = r
	}
	for _, lo := range poset.Labels() {
		for _, hi := range poset.Labels() {
			if lo == hi || !poset.Dominates(hi, lo) {
				continue
			}
			if !answers[string(lo)].Subset(answers[string(hi)]) {
				return fmt.Errorf("differential: dominance coherence violated on %s: answers at %s ⊄ answers at %s (%s vs %s)\nprogram:\n%s",
					c.QuerySrc, lo, hi, answers[string(lo)], answers[string(hi)], c.Source)
			}
		}
	}
	return nil
}

// CheckEmbedding checks Proposition 6.1: a Datalog program embedded as the
// classical component Π of a MultiLog database with trivial security
// (a single level, empty Σ) yields exactly the same answers under plain
// Datalog evaluation, the operational prover, and the reduction. Programs
// with negation are skipped (MultiLog's Π is positive). A prover
// depth-bound exhaustion (cyclic recursion) is skipped like any
// unsupported oracle.
func CheckEmbedding(p *datalog.Program, goal datalog.Atom) error {
	if hasNegation(p) {
		return nil
	}
	db := multilog.NewDatabase()
	if err := db.AddClause(multilog.Clause{
		Head: multilog.PGoal(datalog.NewAtom("level", term.Const("l0"))),
	}); err != nil {
		return err
	}
	for _, c := range p.Clauses {
		mc := multilog.Clause{Head: multilog.PGoal(c.Head)}
		for _, l := range c.Body {
			mc.Body = append(mc.Body, multilog.PGoal(l.Atom))
		}
		if err := db.AddClause(mc); err != nil {
			return fmt.Errorf("differential: embedding: %w", err)
		}
	}
	want, err := datalog.Query(p, nil, goal)
	if err != nil {
		return nil // invalid program: nothing to embed
	}
	wantRes := substResult(want)
	q := multilog.Query{multilog.PGoal(goal)}
	names, outs := runMultiLogOracles(MultiLogOracles(), db, "l0", q)
	for i, o := range outs {
		if errors.Is(o.err, ErrUnsupported) {
			continue
		}
		if o.err != nil {
			return fmt.Errorf("differential: embedding: %s failed: %w", names[i], o.err)
		}
		if !o.result.Equal(wantRes) {
			return fmt.Errorf("differential: Proposition 6.1 violated: %s answers %s, datalog answers %s on %s\nprogram:\n%s",
				names[i], o.result, wantRes, goal, p)
		}
	}
	return nil
}
