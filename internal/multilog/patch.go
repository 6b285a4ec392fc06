package multilog

import (
	"context"
	"sync"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// PatchPlan says how a write's net tuple delta changes the answers of one
// query at one clearance, for a query whose answers are one-to-one with the
// tuples they match (§6's reduction maps a b- or m-goal's answers to belief
// tuples, Fig. 12): a single goal, not a builtin, each of whose level, key,
// class and value — or arguments — is ground or a variable none of the others
// repeats. The answers a delta adds and deletes are then exactly those its
// added and deleted tuples make on their own. A plan holds the lattice and
// the goal, no model: a cache may keep it beside an answer set.
type PatchPlan struct {
	poset *lattice.Poset
	user  lattice.Label
	q     Query
	once  sync.Once
	atoms []datalog.Atom // the goal's atom per level the clearance dominates, built by the first Touching
	class int            // the atoms' class position; -1 for a p-goal
}

// PatchPlan returns q's patch plan at r's clearance, or nil when a delta
// cannot be applied to q's answers: q has several goals, a builtin one, or a
// goal whose positions repeat a variable or hold a non-ground compound term.
func (r *Reduction) PatchPlan(q Query) *PatchPlan {
	if len(q) != 1 {
		return nil
	}
	g := q[0]
	var args [4]term.Term
	pos := args[:0]
	switch g.Kind {
	case GoalM, GoalB:
		pos = append(pos, g.M.Level, g.M.Key, g.M.Class, g.M.Value)
	default:
		if g.P.IsBuiltin() {
			return nil
		}
		pos = g.P.Args
	}
	for i, t := range pos {
		if !t.IsVar() {
			if !t.IsGround() {
				return nil
			}
			continue
		}
		for _, u := range pos[:i] {
			if u.IsVar() && u.Name() == t.Name() {
				return nil
			}
		}
	}
	return &PatchPlan{poset: r.Poset, user: r.User, q: q, class: -1}
}

// Touching appends to add and del the tuples of changed — a write's net
// additions and deletions by translated relation at the plan's clearance
// (DeltaReport.Changed) — that can change the plan's answers: those of the
// relations the goal reads at levels the clearance dominates, as QueryDeps
// names them, that agree with the goal's ground positions and whose class,
// if any, the clearance dominates (match's guards). Which tuples touch thus
// depends on nothing the clearance may not see. Safe for concurrent use.
func (p *PatchPlan) Touching(changed map[string]datalog.PredDelta, add, del []datalog.Atom) ([]datalog.Atom, []datalog.Atom) {
	p.once.Do(func() {
		g := p.q[0]
		if g.Kind != GoalM && g.Kind != GoalB {
			p.atoms = []datalog.Atom{g.P}
			return
		}
		p.class = 3 // rel and bel relations: key, attribute, value, class
		for _, lvl := range (&Reduction{Poset: p.poset}).levelCandidates(g.M.Level) {
			if p.poset.Has(lvl) && p.poset.Dominates(p.user, lvl) {
				p.atoms = append(p.atoms, goalAtom(g, lvl, nil))
			}
		}
		if len(p.atoms) > 0 && p.atoms[0].Pred == UserBelPred {
			p.class = 4 // predicate, key, attribute, value, class, level, mode
		}
	})
	for _, a := range p.atoms {
		pd := changed[a.Pred]
		add, del = p.touching(a, pd.Added, add), p.touching(a, pd.Deleted, del)
	}
	return add, del
}

// touching appends to dst the tuples of ts that agree with a's ground
// arguments and, but for a p-goal's, whose class is a level the plan's
// clearance dominates.
func (p *PatchPlan) touching(a datalog.Atom, ts, dst []datalog.Atom) []datalog.Atom {
next:
	for _, t := range ts {
		for i, arg := range a.Args {
			if !arg.IsVar() && !arg.Equal(t.Args[i]) {
				continue next
			}
		}
		if p.class >= 0 {
			if c := t.Args[p.class]; c.Kind() == term.KindConst && !p.poset.Dominates(p.user, lattice.Label(c.Name())) {
				continue
			}
		}
		dst = append(dst, t)
	}
	return dst
}

// Answers returns the answers the tuples make on their own — tuples Touching
// found — in match's order, each with its Key. It runs match itself over a
// store holding only them, so the level and class guards, the answer keys and
// the bindings are the serving path's own.
func (p *PatchPlan) Answers(tuples []datalog.Atom) []Answer {
	if len(tuples) == 0 {
		return nil
	}
	st := datalog.NewStore()
	for _, t := range tuples {
		st.Insert(t) //nolint:errcheck // model tuples are ground, and a fresh store has no InsertFault
	}
	r := Reduction{Poset: p.poset, User: p.user}
	answers, _, _ := r.match(context.Background(), st, p.q, resource.Limits{})
	return answers
}
