package lint

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/term"
)

// piProgram projects the classical fragment of a MultiLog database — the
// Λ and Π clauses and the classical query goals — into a datalog.Program
// so the classical passes can run over it. Non-classical body goals
// (m- and b-atoms in Σ rules) are out of scope here; the MultiLog-specific
// passes cover them.
func piProgram(db *multilog.Database) *datalog.Program {
	p := &datalog.Program{Clauses: make([]datalog.Clause, 0, len(db.Lambda)+len(db.Pi))}
	for _, cs := range [][]multilog.Clause{db.Lambda, db.Pi} {
		for i := range cs {
			c := &cs[i]
			dc := datalog.Clause{Head: c.Head.P}
			for j := range c.Body {
				if g := &c.Body[j]; g.Kind == multilog.GoalP || g.Kind == multilog.GoalL || g.Kind == multilog.GoalH {
					dc.Body = append(dc.Body, datalog.Pos(g.P))
				}
			}
			p.Add(dc)
		}
	}
	for _, q := range db.Queries {
		for i := range q {
			if g := &q[i]; g.Kind == multilog.GoalP || g.Kind == multilog.GoalL || g.Kind == multilog.GoalH {
				p.AddQuery(g.P)
			}
		}
	}
	return p
}

// eachGoal visits every goal of the database — heads and bodies of all
// three components plus the stored queries — with the clause it came from
// (nil for query goals). The goals are the database's and must not be
// modified.
func eachGoal(db *multilog.Database, visit func(c *multilog.Clause, g *multilog.Goal)) {
	for _, cs := range [][]multilog.Clause{db.Lambda, db.Sigma, db.Pi} {
		for i := range cs {
			c := &cs[i]
			visit(c, &c.Head)
			for j := range c.Body {
				visit(c, &c.Body[j])
			}
		}
	}
	for _, q := range db.Queries {
		for i := range q {
			visit(nil, &q[i])
		}
	}
}

// lintMultiLogSafety reports DL001 range-restriction findings for Σ
// clauses (head variables of an m-clause must be bound by some body goal;
// m-facts must be ground) and DL002 findings for classical predicates
// referenced from Σ bodies or queries but defined nowhere in env's Λ ∪ Π.
func lintMultiLogSafety(r *reporter, db, env *multilog.Database) {
	for _, c := range db.Sigma {
		bound := map[string]bool{}
		for _, g := range c.Body {
			for _, v := range g.Vars(nil) {
				bound[v] = true
			}
		}
		for _, v := range c.Head.Vars(nil) {
			if bound[v] {
				continue
			}
			d := r.report("DL001", Error, c.Pos(),
				"unsafe m-clause %s: head variable %s is not range-restricted", c, v)
			d.Fix = fmt.Sprintf("bind %s in a body goal", v)
		}
	}

	defined := definedPreds(env)
	seen := map[string]bool{}
	eachGoal(db, func(_ *multilog.Clause, g *multilog.Goal) {
		if g.Kind != multilog.GoalP || g.P.IsBuiltin() {
			return
		}
		if defined[g.P.Pred] || seen[g.P.Pred] {
			return
		}
		seen[g.P.Pred] = true
		d := r.report("DL002", Error, g.Pos,
			"classical predicate %s/%d has no facts and no rules in Π; this goal can never be proved", g.P.Pred, g.P.Arity())
		d.Fix = fmt.Sprintf("define %s in Π or remove the goal", g.P.Pred)
	})
}

// definedPreds is the set of classical predicates DL002 counts as defined in
// env: level, order and bel (built in) and the head of every Λ or Π clause.
func definedPreds(env *multilog.Database) map[string]bool {
	defined := map[string]bool{"level": true, "order": true, multilog.UserBelPred: true}
	for _, cs := range [][]multilog.Clause{env.Lambda, env.Pi} {
		for i := range cs {
			defined[cs[i].Head.P.Pred] = true
		}
	}
	return defined
}

// lintMultiLogBeliefs reports ML001 (malformed m-/b-atoms: null or compound
// security terms) and ML002 (belief-mode misuse: a mode that is neither
// built-in, nor registered, nor defined by the Figure 13 bel/7 facts in
// env's Π).
func lintMultiLogBeliefs(r *reporter, db, env *multilog.Database, opts Options) {
	known := map[multilog.Mode]bool{multilog.ModeFir: true, multilog.ModeOpt: true, multilog.ModeCau: true}
	for _, m := range opts.Modes {
		known[m] = true
	}
	// Modes a user-defined belief could still satisfy: the 7th argument of
	// bel/7 clause heads in Π (a variable head argument admits any mode).
	anyMode := false
	for _, c := range env.Pi {
		a := c.Head.P
		if a.Pred != multilog.UserBelPred || len(a.Args) != 7 {
			continue
		}
		switch mt := a.Args[6]; mt.Kind() {
		case term.KindConst:
			known[multilog.Mode(mt.Name())] = true
		case term.KindVar:
			anyMode = true
		}
	}

	badSecTerm := func(t term.Term) string {
		switch t.Kind() {
		case term.KindNull:
			return "the distinguished null"
		case term.KindCompound:
			return fmt.Sprintf("the compound term %s", t)
		}
		return ""
	}
	eachGoal(db, func(_ *multilog.Clause, g *multilog.Goal) {
		if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
			return
		}
		if why := badSecTerm(g.M.Level); why != "" {
			d := r.report("ML001", Error, g.Pos,
				"malformed atom %s: security level is %s; levels must be constants or variables", g, why)
			d.Fix = "use a level constant asserted by Λ or a variable"
		}
		if why := badSecTerm(g.M.Class); why != "" {
			d := r.report("ML001", Error, g.Pos,
				"malformed atom %s: classification is %s; classifications must be constants or variables", g, why)
			d.Fix = "use a level constant asserted by Λ or a variable"
		}
		if g.Kind == multilog.GoalB && !anyMode && !known[g.Mode] {
			d := r.report("ML002", Error, g.Pos,
				"unknown belief mode %q: not one of the built-in modes (fir, opt, cau) and Π defines no bel/7 clauses for it", g.Mode)
			d.Fix = fmt.Sprintf("use fir, opt or cau, or add Figure 13 bel/7 clauses defining %q", g.Mode)
		}
	})
}

// lintMultiLogLattice reports ML004 (Definition 5.3 admissibility: env's Λ
// must define a partial order, and every ground security constant in Σ or the
// queries must be asserted by ⟦Λ⟧) and ML003 (the paper's dominance order:
// a ground atom's assertion level must dominate its classification, c ⪯ s).
func lintMultiLogLattice(r *reporter, db, env *multilog.Database) {
	poset, err := env.Poset()
	if err != nil {
		var pos datalog.Position
		if len(env.Lambda) > 0 {
			pos = env.Lambda[0].Pos()
		}
		r.report("ML004", Error, pos, "Λ does not define an admissible security lattice: %v", err)
		return
	}
	eachGoal(db, func(_ *multilog.Clause, g *multilog.Goal) {
		if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
			return
		}
		levelOK, classOK := false, false
		if t := g.M.Level; t.Kind() == term.KindConst {
			if poset.Has(lattice.Label(t.Name())) {
				levelOK = true
			} else {
				d := r.report("ML004", Error, g.Pos,
					"security level %q in %s is not asserted by Λ", t.Name(), g)
				d.Fix = fmt.Sprintf("add level(%s) and its order/2 facts to Λ, or fix the level", t.Name())
			}
		}
		if t := g.M.Class; t.Kind() == term.KindConst {
			if poset.Has(lattice.Label(t.Name())) {
				classOK = true
			} else {
				d := r.report("ML004", Error, g.Pos,
					"classification %q in %s is not asserted by Λ", t.Name(), g)
				d.Fix = fmt.Sprintf("add level(%s) and its order/2 facts to Λ, or fix the classification", t.Name())
			}
		}
		if levelOK && classOK &&
			!poset.Dominates(lattice.Label(g.M.Level.Name()), lattice.Label(g.M.Class.Name())) {
			d := r.report("ML003", Error, g.Pos,
				"atom %s violates the dominance order: assertion level %s does not dominate classification %s (the paper requires c ⪯ s)",
				g, g.M.Level.Name(), g.M.Class.Name())
			d.Fix = fmt.Sprintf("assert the atom at a level dominating %s, or lower the classification", g.M.Class.Name())
		}
	})
}

// lintMultiLogReserved reports ML009: a goal anywhere in db that names a
// relation τ introduces (multilog.ReservedPred), whose cells no clearance
// guard filters, so that reading one reads above the clearance and writing
// one writes there; and a Π clause that defines dominate, τ's dominance
// relation.
func lintMultiLogReserved(r *reporter, db *multilog.Database) {
	eachGoal(db, func(_ *multilog.Clause, g *multilog.Goal) {
		if g.Kind == multilog.GoalP && multilog.ReservedPred(g.P.Pred) {
			d := r.report("ML009", Error, g.Pos,
				"%s names %s, a relation of the reduction: its cells are not guarded by the clearance", g, g.P.Pred)
			d.Fix = "read and write m-predicates through m- and b-atoms"
		}
	})
	for _, c := range db.Pi {
		if c.Head.P.Pred == multilog.DominatePred {
			d := r.report("ML009", Error, c.Head.Pos,
				"%s defines %s, the reduction's dominance relation over Λ", c.Head, multilog.DominatePred)
			d.Fix = "state the lattice with level/1 and order/2 in Λ"
		}
	}
}
