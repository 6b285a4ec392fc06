package multilog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/lattice"
	"repro/internal/term"
)

// MonotoneClause reports whether c keeps τ's clearance guards idle at every
// level its head may take: a database all of whose clauses pass, reduced at
// a clearance s and read through the query guards of a clearance u ⪯ s
// (View), answers every query as its reduction at u does, with the same
// match steps. The check is conservative and looks at c alone.
//
// A clause with a p-atom head (Π) passes unless a goal of it names a
// relation of the reduction (mlrel_, mlbel_, mlexceeded_). A clause with an
// m-atom head (Σ) passes when it names none either and
//   - each body m- or b-goal's level is dominated by the head's: both are
//     constants, or both the same variable, or the body's is the lattice's
//     bottom — so the instances at a head level u dominates are the same at
//     u and at s;
//   - every b-goal is in a built-in mode (fir, opt, cau), whose relations at
//     a level hold cells classified at most at that level;
//   - the head's class is a constant its level dominates, the head's level
//     variable, or the class variable of a body m- or b-goal — so a derived
//     cell is classified at most at its level too, and the class guard
//     c ⪯ u, which a Σ body puts on every cell it reads at a level ⪯ u,
//     holds at u and at s alike.
//
// A fact is a clause with no body, and must be classified at most at its
// level (lint ML003 rejects any other ground one).
func MonotoneClause(c Clause, poset *lattice.Poset) bool {
	reserved := func(g Goal) bool { return g.Kind == GoalP && ReservedPred(g.P.Pred) }
	if reserved(c.Head) || slices.ContainsFunc(c.Body, reserved) {
		return false
	}
	if c.Head.Kind != GoalM {
		return true
	}
	head, class := c.Head.M.Level, c.Head.M.Class
	bound := class.IsVar() && head.IsVar() && class.Name() == head.Name()
	for _, g := range c.Body {
		if g.Kind != GoalM && g.Kind != GoalB {
			continue
		}
		if g.Kind == GoalB && g.Mode != ModeFir && g.Mode != ModeOpt && g.Mode != ModeCau {
			return false
		}
		if !levelBelow(g.M.Level, head, poset) {
			return false
		}
		bound = bound || class.IsVar() && g.M.Class.IsVar() && g.M.Class.Name() == class.Name()
	}
	if class.IsVar() {
		return bound
	}
	return levelBelow(class, head, poset)
}

// levelBelow reports whether the level term lo is dominated by the level term
// hi at every grounding: both constants of the lattice in order, both the
// same variable, or lo the lattice's bottom, which every level dominates.
func levelBelow(lo, hi term.Term, poset *lattice.Poset) bool {
	switch {
	case lo.IsVar():
		return hi.IsVar() && lo.Name() == hi.Name()
	case lo.Kind() != term.KindConst || !poset.Has(lattice.Label(lo.Name())):
		return false
	case hi.Kind() == term.KindConst:
		return poset.Has(lattice.Label(hi.Name())) && poset.Dominates(lattice.Label(hi.Name()), lattice.Label(lo.Name()))
	case !hi.IsVar():
		return false
	}
	for _, l := range poset.Labels() {
		if !poset.Dominates(l, lattice.Label(lo.Name())) {
			return false
		}
	}
	return true
}

// ReservedPred reports whether pred names a relation τ introduces per level
// (a rel, bel or exceeded relation), which no clause or query may read or
// define: its tuples are not guarded by the clearance. It is the one test of
// the name: lint ML009 refuses a clause that names one, and match a query.
func ReservedPred(pred string) bool {
	return strings.HasPrefix(pred, relPrefix) || strings.HasPrefix(pred, belPrefix) || strings.HasPrefix(pred, excPrefix)
}

// View returns r read at clearance u, which r's clearance must dominate: a
// reduction that shares r's prepared model and answers QueryPrepared,
// PatchPlan and QueryDeps with u's guards (a level and a class u dominates).
// For a database every clause of which is a MonotoneClause, the view answers
// as Reduce at u, prepared, would. It is for reading only: Advance refuses it
// (advance r, and view the result). At r's own clearance it is r.
func (r *Reduction) View(u lattice.Label) (*Reduction, error) {
	switch {
	case u == r.User:
		return r, nil
	case r.model == nil:
		return nil, fmt.Errorf("multilog: reduction is not prepared (call Prepare before View)")
	case !r.Poset.Has(u) || !r.Poset.Dominates(r.User, u):
		return nil, fmt.Errorf("multilog: a reduction at %s cannot be read at %s, which it does not dominate", r.User, u)
	}
	return &Reduction{User: u, Poset: r.Poset, model: r.model, preds: r.preds, opts: r.opts}, nil
}
