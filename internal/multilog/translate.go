package multilog

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// Reserved predicate names used by the translation; user programs must not
// define them.
const (
	// DominatePred is τ's dominance relation over Λ; no Π clause may
	// define it (lint ML009).
	DominatePred = "dominate"
	predLevel    = "level"
	predOrder    = "order"
	relPrefix    = "mlrel_"      // mlrel_<pred>_<level>(K, A, V, C)
	belPrefix    = "mlbel_"      // mlbel_<pred>_<level>_<mode>(K, A, V, C)
	excPrefix    = "mlexceeded_" // mlexceeded_<pred>_<level>(K, A, C)
	// UserBelPred is the distinguished predicate for user-defined belief
	// modes (§7, the USER-BELIEF rule of Figure 13): programs define
	// bel(P, K, A, V, C, H, M) in Π and b-atoms with unknown modes reduce
	// to it.
	UserBelPred = "bel"
)

// The translation specializes rel and bel by MultiLog predicate *and*
// security level. Per-predicate specialization matters for stratification:
// a clause deriving review-facts at a level from cautious patient-beliefs
// at the same level is perfectly stratified, and must not be conflated
// with the (genuinely circular) self-referential case.
func relPred(pred string, l lattice.Label) string {
	return relPrefix + pred + "_" + string(l)
}
func belPred(pred string, l lattice.Label, m Mode) string {
	return belPrefix + pred + "_" + string(l) + "_" + string(m)
}
func excPred(pred string, l lattice.Label) string {
	return excPrefix + pred + "_" + string(l)
}

// Reduction is a MultiLog database reduced to the classical engine at a
// fixed user level (§6.1: "the level of the database we are interested in
// must be determined at the compile time"). It translates queries and holds
// the reduced program's minimal model.
type Reduction struct {
	// DB is the database reduced; nil on a reduction Advance was handed no
	// database for.
	DB    *Database
	User  lattice.Label
	Poset *lattice.Poset
	// Program is the translated program, Figure 12 axioms included, of a
	// fresh reduction; nil on one Advance returned with an engine, which holds
	// the rules (RequireBelief translates DB again when a query needs one).
	Program *datalog.Program

	// LastStats reports the resource usage of the most recent governed
	// ModelContext/QueryContext call: model-construction work plus (for
	// QueryContext) matching steps. Valid whether or not the call completed.
	LastStats resource.Stats

	model *datalog.Store       // the minimal model, once built or installed: the reduction is prepared
	inc   *datalog.Incremental // model's maintenance engine: built by Prepare or by the first advance, nil before
	needs map[belNeed]bool
	preds map[string]bool // MultiLog predicate names seen in Σ and queries; shared by Advance, copied to write
	opts  Options
}

type belNeed struct {
	pred  string
	level lattice.Label
	mode  Mode
}

// Options tunes the translation.
type Options struct {
	// Filter enables the Figure 13 FILTER / FILTER-NULL rules (§7): data
	// flows down from higher levels, visible cells keeping their value and
	// hidden ones surfacing as nulls classified at the inheriting level.
	// This reintroduces the σ filter of [12] — and with it the surprise
	// stories — so it is off by default, as in the paper.
	Filter bool
}

// Reduce translates the database for a subject cleared at user, applying
// the translation function τ of §6.1 with two mechanical repairs recorded
// in DESIGN.md: level specialization (rel and bel are specialized per
// ground security level so that the cautious mode's negation stratifies
// level-by-level) and the safe rewriting of the Figure 12 cautious axioms
// a6-a9 through the auxiliary predicate mlexceeded.
func Reduce(db *Database, user lattice.Label) (*Reduction, error) {
	return ReduceOpts(db, user, Options{})
}

// ReduceOpts is Reduce with explicit options.
func ReduceOpts(db *Database, user lattice.Label, opts Options) (*Reduction, error) {
	if err := db.CheckAdmissible(); err != nil {
		return nil, err
	}
	poset, err := db.Poset()
	if err != nil {
		return nil, err
	}
	if !poset.Has(user) {
		return nil, fmt.Errorf("multilog: user level %q is not asserted by Λ", user)
	}
	return translate(db, poset, user, opts, true)
}

// translate is τ at user over db's clauses — all of them, or without facts
// only its rules — and the Figure 12 axioms of every predicate Σ mentions.
func translate(db *Database, poset *lattice.Poset, user lattice.Label, opts Options, facts bool) (*Reduction, error) {
	r := &Reduction{DB: db, User: user, Poset: poset, Program: &datalog.Program{},
		needs: map[belNeed]bool{}, preds: map[string]bool{}, opts: opts}
	keep := func(c Clause) bool { return facts || !c.IsFact() }
	for _, c := range db.Sigma {
		goals := append([]Goal{c.Head}, c.Body...)
		for _, g := range goals {
			if g.Kind == GoalM || g.Kind == GoalB {
				r.preds[g.M.Pred] = true
			}
		}
	}

	// Λ component and the dominance axioms a1-a3.
	for _, c := range db.Lambda {
		if !keep(c) {
			continue
		}
		dc, err := lambdaClause(c)
		if err != nil {
			return nil, err
		}
		r.Program.Add(dc)
	}
	for _, src := range []string{
		"dominate(X, Y) :- order(X, Y).",
		"dominate(X, X) :- level(X).",
		"dominate(X, Y) :- order(X, Z), dominate(Z, Y).",
	} {
		dc, err := datalog.ParseClause(src)
		if err != nil {
			return nil, err
		}
		r.Program.Add(dc)
	}

	// Π translates unchanged; Σ is grounded over S, instances whose static
	// guards fail dropped, the rest translated.
	for _, cs := range [][]Clause{db.Pi, db.Sigma} {
		for _, c := range cs {
			if !keep(c) {
				continue
			}
			if err := r.translateClause(c); err != nil {
				return nil, err
			}
		}
	}
	for _, pred := range r.predList() {
		r.emitPredAxioms(pred)
	}
	return r, nil
}

// translateClause appends τ(c) at r's clearance to r.Program. τ is the
// identity on a Π clause; a Σ clause has its level variables grounded over S
// and yields one classical clause per instance whose static guards hold at
// r.User (sigmaClause, which also notes in r.needs the beliefs the body
// reads). The result depends on the clause, the lattice and the clearance
// and on nothing else in the database, so a written clause is translated on
// its own (Advance).
func (r *Reduction) translateClause(c Clause) error {
	switch c.Head.Kind {
	case GoalM:
		for _, gc := range r.groundLevels(c) {
			ok, dcs, err := r.sigmaClause(gc)
			if err != nil {
				return err
			}
			if ok {
				r.Program.Add(dcs...)
			}
		}
	case GoalP:
		dc := datalog.Clause{Head: c.Head.P}
		for _, g := range c.Body {
			if g.Kind == GoalM || g.Kind == GoalB {
				return fmt.Errorf("multilog: m- and b-atoms in p-clause bodies require level grounding; move the clause to Σ by giving it an m-atom head, or keep Π classical: %s", c)
			}
			lit, err := r.bodyLiteral(g, nil)
			if err != nil {
				return err
			}
			dc.Body = append(dc.Body, lit...)
		}
		r.Program.Add(dc)
	default:
		return fmt.Errorf("multilog: %s is neither a Σ nor a Π clause", c)
	}
	return nil
}

// emitPredAxioms appends what the reduction holds per Σ predicate rather
// than per clause. Under Options.Filter, the Figure 13 FILTER / FILTER-NULL
// rules, one pair per level pair lo < hi: values whose classification the
// lower level dominates flow down unchanged; the rest flow down as nulls
// classified at the inheriting level. Then the Figure 12 axiom instances, in
// every mode, at every level r.User dominates — the only levels a clause
// guard or a query guard lets through, so every query stays answerable
// without re-evaluating.
func (r *Reduction) emitPredAxioms(pred string) {
	if r.opts.Filter {
		av := axiomVars
		for _, lo := range r.Poset.Labels() {
			for _, hi := range r.Poset.UpSet(lo) {
				if hi == lo {
					continue
				}
				loC := term.Const(string(lo))
				r.Program.Add(datalog.Rule(
					datalog.Atom{Pred: relPred(pred, lo), Args: []term.Term{av.k, av.a, av.v, av.c}},
					datalog.Pos(datalog.Atom{Pred: relPred(pred, hi), Args: []term.Term{av.k, av.a, av.v, av.c}}),
					datalog.Pos(datalog.Atom{Pred: DominatePred, Args: []term.Term{av.c, loC}}),
				))
				r.Program.Add(datalog.Rule(
					datalog.Atom{Pred: relPred(pred, lo), Args: []term.Term{av.k, av.a, term.Null(), loC}},
					datalog.Pos(datalog.Atom{Pred: relPred(pred, hi), Args: []term.Term{av.k, av.a, av.v, av.c}}),
					datalog.Neg(datalog.Atom{Pred: DominatePred, Args: []term.Term{av.c, loC}}),
				))
			}
		}
	}
	levels := r.Poset.DownSet(r.User)
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	for _, l := range levels {
		for _, m := range []Mode{ModeCau, ModeFir, ModeOpt} {
			r.needs[belNeed{pred, l, m}] = true
			r.emitAxiomFor(pred, l, m)
		}
	}
}

// groundLevels instantiates every variable occurring in a security-level
// position (an m/b-atom's Level, or a b-atom's belief level) over the
// asserted levels. Class-position variables remain symbolic — they are
// matched against stored classifications at run time.
func (r *Reduction) groundLevels(c Clause) []Clause {
	varSet := map[string]bool{}
	collect := func(g Goal) {
		if g.Kind == GoalM || g.Kind == GoalB {
			if g.M.Level.IsVar() {
				varSet[g.M.Level.Name()] = true
			}
		}
	}
	collect(c.Head)
	for _, g := range c.Body {
		collect(g)
	}
	if len(varSet) == 0 {
		return []Clause{c}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	levels := r.Poset.Labels()
	out := []Clause{}
	var rec func(i int, s term.Subst)
	rec = func(i int, s term.Subst) {
		if i == len(vars) {
			nc := Clause{Head: c.Head.Apply(s)}
			for _, g := range c.Body {
				nc.Body = append(nc.Body, g.Apply(s))
			}
			out = append(out, nc)
			return
		}
		for _, l := range levels {
			s2 := s.Clone()
			s2[vars[i]] = term.Const(string(l))
			rec(i+1, s2)
		}
	}
	rec(0, term.Subst{})
	return out
}

// sigmaClause translates one level-ground Σ clause. It returns ok=false
// when a static guard fails (a body atom's level is not dominated by the
// user level), in which case the clause instance can never fire.
func (r *Reduction) sigmaClause(c Clause) (bool, []datalog.Clause, error) {
	headLevel, err := r.groundLevelOf(c.Head.M.Level, c)
	if err != nil {
		return false, nil, err
	}
	head := datalog.Atom{Pred: relPred(c.Head.M.Pred, headLevel), Args: []term.Term{
		c.Head.M.Key, term.Const(c.Head.M.Attr), c.Head.M.Value, c.Head.M.Class,
	}}
	dc := datalog.Clause{Head: head}
	for _, g := range c.Body {
		switch g.Kind {
		case GoalM, GoalB:
			lvl, err := r.groundLevelOf(g.M.Level, c)
			if err != nil {
				return false, nil, err
			}
			// λ's static level guard: l ⪯ u.
			if !r.Poset.Dominates(r.User, lvl) {
				return false, nil, nil
			}
			// A b-atom in a built-in mode needs that mode's axioms; one in a
			// user-defined mode reads the distinguished bel/7 predicate
			// defined in Π (Figure 13, USER-BELIEF).
			if g.Kind == GoalB && (g.Mode == ModeFir || g.Mode == ModeOpt || g.Mode == ModeCau) {
				r.needs[belNeed{g.M.Pred, lvl, g.Mode}] = true
			}
			dc.Body = append(dc.Body, datalog.Pos(goalAtom(g, lvl, nil)), r.classGuard(g.M.Class))
		default:
			lits, err := r.bodyLiteral(g, nil)
			if err != nil {
				return false, nil, err
			}
			dc.Body = append(dc.Body, lits...)
		}
	}
	return true, []datalog.Clause{dc}, nil
}

// classGuard is λ's second guard: the attribute classification must be
// dominated by the user level (c ⪯ u).
func (r *Reduction) classGuard(class term.Term) datalog.Literal {
	return datalog.Pos(datalog.Atom{Pred: DominatePred, Args: []term.Term{class, term.Const(string(r.User))}})
}

func (r *Reduction) bodyLiteral(g Goal, _ any) ([]datalog.Literal, error) {
	switch g.Kind {
	case GoalP, GoalL, GoalH:
		return []datalog.Literal{datalog.Pos(g.P)}, nil
	}
	return nil, fmt.Errorf("multilog: unexpected goal %s in classical position", g)
}

func (r *Reduction) groundLevelOf(t term.Term, c Clause) (lattice.Label, error) {
	if t.Kind() != term.KindConst {
		return "", fmt.Errorf("multilog: internal: level %s not ground after grounding in %s", t, c)
	}
	l := lattice.Label(t.Name())
	if !r.Poset.Has(l) {
		return "", fmt.Errorf("multilog: clause %s uses level %q not asserted by Λ", c, l)
	}
	return l, nil
}

// RequireBelief registers a (predicate, level, mode) triple needed by a
// query. Reduce pre-registers every triple for the predicates in Σ
// (emitPredAxioms); queries over other predicates register lazily, into a
// fresh translation of DB when the reduction has no Program (τ depends on DB,
// the clearance and the options alone). A reduction with neither — one
// Advance made with a nil db — registers nothing: its engine holds every
// pre-registered triple, and a triple over a predicate outside Σ ranges over
// empty rel relations, so it could add no answer (see QueryPrepared).
func (r *Reduction) RequireBelief(pred string, l lattice.Label, m Mode) {
	if m != ModeFir && m != ModeOpt && m != ModeCau {
		return
	}
	if r.Program == nil && r.DB == nil {
		return
	}
	if r.Program == nil {
		fresh, err := translate(r.DB, r.Poset, r.User, r.opts, true)
		if err != nil {
			return // unreachable: every clause of DB translated on its way in
		}
		r.Program, r.needs, r.preds = fresh.Program, fresh.needs, fresh.preds
	}
	if !r.needs[belNeed{pred, l, m}] {
		r.needs[belNeed{pred, l, m}] = true
		if !r.preds[pred] {
			r.preds = maps.Clone(r.preds) // shared by the reductions Advance made from r, or r's source
			r.preds[pred] = true
		}
		r.emitAxiomFor(pred, l, m)
		r.model = nil
		r.inc = nil
	}
}

var axiomVars = struct{ k, a, v, c, v2, c2 term.Term }{
	term.Var("K"), term.Var("A"), term.Var("V"), term.Var("C"),
	term.Var("V2"), term.Var("C2"),
}

// emitAxiomFor adds the axiom instances defining bel at one (predicate,
// level, mode).
//
// The printed Figure 12 axioms a6-a9 are unsafe (a6 negates order(L,H) with
// L unbound; a7-a9 leave primed variables unbound); the repaired form below
// implements Definition 3.1's cautious clause: a cell is believed
// cautiously at h iff it is visible at h and no visible cell of the same
// (predicate, key, attribute) carries a strictly dominating classification.
func (r *Reduction) emitAxiomFor(p string, h lattice.Label, m Mode) {
	av := axiomVars
	relArgs := func(v, c term.Term) []term.Term {
		return []term.Term{av.k, av.a, v, c}
	}
	switch m {
	case ModeFir:
		// a4: bel(..., H, fir) ← rel(..., H).
		r.Program.Add(datalog.Rule(
			datalog.Atom{Pred: belPred(p, h, ModeFir), Args: relArgs(av.v, av.c)},
			datalog.Pos(datalog.Atom{Pred: relPred(p, h), Args: relArgs(av.v, av.c)}),
		))
	case ModeOpt:
		// a5: bel(..., H, opt) ← rel(..., L), dominate(L, H) — one
		// instance per dominated level.
		for _, l := range r.Poset.DownSet(h) {
			r.Program.Add(datalog.Rule(
				datalog.Atom{Pred: belPred(p, h, ModeOpt), Args: relArgs(av.v, av.c)},
				datalog.Pos(datalog.Atom{Pred: relPred(p, l), Args: relArgs(av.v, av.c)}),
			))
		}
	case ModeCau:
		// a6-a9 (repaired): believed cautiously iff visible and not
		// exceeded by a strictly higher-classified visible cell.
		for _, l := range r.Poset.DownSet(h) {
			r.Program.Add(datalog.Rule(
				datalog.Atom{Pred: belPred(p, h, ModeCau), Args: relArgs(av.v, av.c)},
				datalog.Pos(datalog.Atom{Pred: relPred(p, l), Args: relArgs(av.v, av.c)}),
				datalog.Neg(datalog.Atom{Pred: excPred(p, h), Args: []term.Term{av.k, av.a, av.c}}),
			))
		}
		for _, l2 := range r.Poset.DownSet(h) {
			r.Program.Add(datalog.Rule(
				datalog.Atom{Pred: excPred(p, h), Args: []term.Term{av.k, av.a, av.c}},
				datalog.Pos(datalog.Atom{Pred: relPred(p, l2), Args: relArgs(av.v2, av.c2)}),
				datalog.Pos(datalog.Atom{Pred: predLevel, Args: []term.Term{av.c}}),
				datalog.Pos(datalog.Atom{Pred: DominatePred, Args: []term.Term{av.c, av.c2}}),
				datalog.Pos(datalog.Atom{Pred: datalog.BuiltinNeq, Args: []term.Term{av.c, av.c2}}),
			))
		}
	}
}
