package multilog

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// Model evaluates the reduced program to its minimal model (Theorem 6.1's
// lfp(T_Δr)), caching the result.
func (r *Reduction) Model() (*datalog.Store, error) {
	return r.ModelContext(context.Background(), resource.Limits{})
}

// ModelContext is Model bounded by ctx and limits. Only a complete model is
// cached: a truncated model would silently poison later unbounded calls.
// On a resource-limit stop it returns the partial model alongside the error.
func (r *Reduction) ModelContext(ctx context.Context, limits resource.Limits) (*datalog.Store, error) {
	if r.model != nil {
		return r.model, nil
	}
	e := datalog.Evaluator{Limits: limits}
	m, err := e.EvalContext(ctx, r.Program, nil)
	r.LastStats = e.Stats.Resource
	if err != nil {
		if m != nil && resource.IsLimit(err) {
			return m, fmt.Errorf("multilog: reduced program: %w", err)
		}
		return nil, fmt.Errorf("multilog: reduced program: %w", err)
	}
	r.model = m
	return m, nil
}

// Answer is one solution to a MultiLog query: bindings for the query's
// variables, and Key, their Subst.String rendering, which orders the answers.
type Answer struct {
	Bindings term.Subst
	Key      string
}

// Query answers a conjunctive MultiLog query against the reduction. Level
// variables in m/b-atom level positions are enumerated over the asserted
// levels; all other variables are matched against the model. Answers are
// restricted to the query's variables and deduplicated.
func (r *Reduction) Query(q Query) ([]Answer, error) {
	return r.QueryContext(context.Background(), q, resource.Limits{})
}

// QueryContext is Query bounded by ctx and limits — both the bottom-up
// model construction and the top-down matching phase are governed. On a
// resource-limit stop (resource.IsLimit(err)) it returns the answers found
// so far alongside the error.
//
// QueryContext mutates the reduction (lazy axiom registration, the model
// cache, LastStats) and therefore must not be called concurrently; for
// shared, read-only querying see Prepare and QueryPrepared.
func (r *Reduction) QueryContext(ctx context.Context, q Query, limits resource.Limits) ([]Answer, error) {
	r.LastStats = resource.Stats{} // ModelContext refills it when it builds
	// Register the belief axioms any b-atom goal may need before
	// evaluating; predicates outside Σ are covered lazily here.
	for _, g := range q {
		if g.Kind != GoalB {
			continue
		}
		for _, lvl := range r.levelCandidates(g.M.Level) {
			if r.Poset.Has(lvl) {
				r.RequireBelief(g.M.Pred, lvl, g.Mode)
			}
		}
	}
	model, modelErr := r.ModelContext(ctx, limits)
	if model == nil {
		return nil, modelErr
	}
	answers, match, err := r.match(ctx, model, q, limits)
	r.LastStats.Steps += match.Steps
	r.LastStats.Truncated = r.LastStats.Truncated || match.Truncated
	if err != nil {
		if resource.IsLimit(err) {
			// Graceful degradation: the answers found before the limit hit.
			return answers, err
		}
		return nil, err
	}
	return answers, modelErr
}

// Prepare eagerly materializes the reduced program's minimal model so the
// reduction can afterwards serve any number of concurrent QueryPrepared
// calls without further mutation. It returns an error — and leaves the
// reduction unprepared — when ctx or limits cut the model construction
// short. Call it once, before publishing the reduction to other goroutines;
// on a reduction that already holds its model it does nothing.
//
// The model is built into a maintenance engine (datalog.Incremental): the
// one-shot Eval, plus the base count of every fact clause, which the first
// clause delta (Advance, AdvanceFrom) patches.
func (r *Reduction) Prepare(ctx context.Context, limits resource.Limits) error {
	if r.model != nil {
		r.InstallPrepared(r.model)
		return nil
	}
	inc, err := datalog.NewIncrementalContext(ctx, r.Program, nil, limits)
	if err != nil {
		return fmt.Errorf("multilog: reduced program: %w", err)
	}
	r.inc = inc
	r.InstallPrepared(inc.Model())
	return nil
}

// InstallPrepared installs an externally materialized minimal model of the
// reduced program — the compiled engine's output (internal/compile) — and
// with it the reduction is prepared: QueryPrepared serves it exactly as if
// Prepare had built it. The caller guarantees the model is the complete
// lfp of r.Program; installing a partial model would silently drop answers.
// The model comes without an engine: the first advance from the reduction
// makes one over a clone of it (datalog.Adopt), which a reduction that is
// only ever read never pays.
func (r *Reduction) InstallPrepared(model *datalog.Store) {
	r.model = model
}

// QueryPrepared answers q against the prepared model without mutating the
// reduction, so it is safe for concurrent use by any number of goroutines
// once Prepare has succeeded. The matching phase is governed by ctx and
// limits; the work done is returned as stats rather than stored in
// LastStats (which QueryPrepared never touches). The goals are matched in
// the order match's planner picks, the same as for QueryContext.
//
// Unlike QueryContext it performs no lazy axiom registration. That is
// semantically harmless: Reduce pre-registers every (predicate, level,
// mode) triple over the Σ predicates at levels the user dominates — the
// only levels the λ guard lets a query reach — and for predicates outside
// Σ the belief axioms range over empty rel relations, so registering them
// could never contribute an answer.
func (r *Reduction) QueryPrepared(ctx context.Context, q Query, limits resource.Limits) ([]Answer, resource.Stats, error) {
	if r.model == nil {
		return nil, resource.Stats{}, fmt.Errorf("multilog: reduction is not prepared (call Prepare before QueryPrepared)")
	}
	answers, stats, err := r.match(ctx, r.model, q, limits)
	if err != nil && !resource.IsLimit(err) {
		return nil, stats, err
	}
	return answers, stats, err
}

// match runs the top-down matching phase of a query against a materialized
// model. It reads the reduction (Poset, User) and the model but mutates
// neither, so concurrent calls over the same model are safe. It refuses a
// p-goal that names a relation τ introduces: those hold cells at every level,
// unguarded.
//
// A conjunction means the same in any goal order, and match does not solve
// it as written: at each node with two or more goals left it solves next the
// goal pick ranks first by which of its arguments the bindings so far make
// ground, so a join probes an index with what one goal bound instead of
// walking a relation per fact of another, and a '!=' waits until it is
// ground. Every node is one governor step. The answers, deduplicated and
// sorted by their rendering, do not depend on the order; the steps a query
// takes, and which answers a step budget cuts short, do.
func (r *Reduction) match(ctx context.Context, model *datalog.Store, q Query, limits resource.Limits) ([]Answer, resource.Stats, error) {
	gov := resource.New(ctx, limits)
	var vars []string
	for _, g := range q {
		if g.Kind == GoalP && reservedPred(g.P.Pred) {
			return nil, resource.Stats{}, fmt.Errorf("multilog: %s names a relation of the reduction, which holds cells the clearance %s may not see; query it through an m- or b-atom", g, r.User)
		}
		vars = g.Vars(vars)
	}
	sort.Strings(vars)
	vars = slices.Compact(vars)

	// An answer is rendered once, to the Subst.String of its restriction to
	// the query's variables: that key deduplicates it here and orders it
	// below. The restriction is built only for a key not seen before.
	seen := map[string]Answer{}
	vals := make([]term.Term, len(vars))
	var key []byte
	emit := func(s term.Subst) {
		for i, v := range vars {
			vals[i] = s.Apply(term.Var(v))
		}
		key = term.AppendBindings(key[:0], vars, vals)
		if _, dup := seen[string(key)]; dup {
			return
		}
		restricted := make(term.Subst, len(vars))
		for i, v := range vars {
			restricted[v] = vals[i]
		}
		k := string(key)
		seen[k] = Answer{Bindings: restricted, Key: k}
	}

	// The goals are solved in the order pick chooses, not as written:
	// order[depth:] holds the indices of the goals a branch at that depth has
	// yet to solve, the one it solves swapped to the front for its subtree.
	order := make([]int, len(q))
	for i := range order {
		order[i] = i
	}
	var solve func(depth int, s term.Subst) error
	solve = func(depth int, s term.Subst) error {
		if err := gov.Step(); err != nil {
			return err
		}
		rest := order[depth:]
		if len(rest) == 0 {
			emit(s)
			return nil
		}
		j := 0
		if len(rest) > 1 {
			if j = pick(q, rest, s); j < 0 {
				return nil // only '!=' goals nothing binds are left
			}
		}
		rest[0], rest[j] = rest[j], rest[0]
		g := q[rest[0]].Apply(s)
		var err error
		switch g.Kind {
		case GoalP, GoalL, GoalH:
			switch g.P.Pred {
			case datalog.BuiltinEq:
				var tb [4]string
				trail, ok := term.UnifyTrail(g.P.Args[0], g.P.Args[1], s, tb[:0])
				if ok {
					err = solve(depth+1, s)
				}
				s.Undo(trail)
			case datalog.BuiltinNeq:
				if g.P.IsGround() && !g.P.Args[0].Equal(g.P.Args[1]) {
					err = solve(depth+1, s)
				}
			default:
				model.Match(g.P, s, func(term.Subst) bool {
					err = solve(depth+1, s)
					return err == nil
				})
			}
		case GoalM, GoalB:
			for _, lvl := range r.levelCandidates(g.M.Level) {
				// λ guards: level ⪯ u; the class guard is enforced by
				// matching below plus an explicit dominance check.
				if !r.Poset.Dominates(r.User, lvl) {
					continue
				}
				var tb [1]string
				trail, ok := term.UnifyTrail(g.M.Level, term.Const(string(lvl)), s, tb[:0])
				if ok {
					var args [goalArgs]term.Term
					model.Match(goalAtom(g, lvl, args[:0]), s, func(term.Subst) bool {
						class := s.Apply(g.M.Class)
						if class.Kind() == term.KindConst &&
							!r.Poset.Dominates(r.User, lattice.Label(class.Name())) {
							return true // class guard c ⪯ u failed
						}
						err = solve(depth+1, s)
						return err == nil
					})
				}
				s.Undo(trail)
				if err != nil {
					break
				}
			}
		}
		rest[0], rest[j] = rest[j], rest[0]
		return err
	}
	err := solve(0, term.Subst{})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var answers []Answer
	for _, k := range keys {
		answers = append(answers, seen[k])
	}
	return answers, gov.Snapshot(), err
}

// pick is match's planner. Of the goals q[rest[k]] it returns the position
// k of the one planRank ranks lowest under s, the earliest written on a tie,
// or -1 when every goal left is a '!=' that is not ground. It reads the
// binding pattern alone, never the model: the plan, and the steps a query
// reports, cannot depend on facts the user may not see.
func pick(q Query, rest []int, s term.Subst) int {
	best, bestRank := -1, 0
	for k, i := range rest {
		rank := planRank(q[i], s)
		if rank < 0 {
			continue
		}
		if best < 0 || rank < bestRank || rank == bestRank && i < rest[best] {
			best, bestRank = k, rank
		}
	}
	return best
}

// planRank is how soon pick solves g under s, lowest first: 0 for an '=' and
// for a ground '!=', then 1 for an atom whose selecting arguments are all
// ground (a lookup), 2 for one with some ground (an index probe) and 3 for
// one with none (a scan); -1 for a '!=' not yet ground, which waits. A p-,
// l- or h-atom selects on every argument; an m- or b-atom on its key and
// value, as its attribute is a constant of every fact of its relation and
// its level and class range over a handful of labels.
func planRank(g Goal, s term.Subst) int {
	sel := g.P.Args
	switch {
	case g.Kind == GoalM || g.Kind == GoalB:
		sel = []term.Term{g.M.Key, g.M.Value}
	case g.P.Pred == datalog.BuiltinEq:
		return 0
	case g.P.Pred == datalog.BuiltinNeq:
		if g.P.Apply(s).IsGround() {
			return 0
		}
		return -1
	}
	bound := 0
	for _, t := range sel {
		if s.Apply(t).IsGround() {
			bound++
		}
	}
	switch bound {
	case len(sel):
		return 1
	case 0:
		return 3
	}
	return 2
}

// goalAtom is the model atom an m- or b-goal reads at level lvl: the level's
// rel relation for an m-atom, its bel relation for a b-atom in a built-in
// mode, the user-belief relation for any other mode. Its arguments are
// appended to args, so that a caller's array of goalArgs keeps them off the
// heap. The match and the Σ translation both read through it.
func goalAtom(g Goal, lvl lattice.Label, args []term.Term) datalog.Atom {
	switch {
	case g.Kind == GoalM:
		return datalog.Atom{Pred: relPred(g.M.Pred, lvl),
			Args: append(args, g.M.Key, term.Const(g.M.Attr), g.M.Value, g.M.Class)}
	case g.Mode == ModeFir || g.Mode == ModeOpt || g.Mode == ModeCau:
		return datalog.Atom{Pred: belPred(g.M.Pred, lvl, g.Mode),
			Args: append(args, g.M.Key, term.Const(g.M.Attr), g.M.Value, g.M.Class)}
	}
	return datalog.Atom{Pred: UserBelPred, Args: append(args, term.Const(g.M.Pred), g.M.Key,
		term.Const(g.M.Attr), g.M.Value, g.M.Class, term.Const(string(lvl)), term.Const(string(g.Mode)))}
}

// goalArgs is the most arguments goalAtom gives an atom: the user-belief
// relation's seven.
const goalArgs = 7

// levelCandidates enumerates the levels a level-position term can take:
// the term's own label when ground, or every asserted level when variable.
func (r *Reduction) levelCandidates(t term.Term) []lattice.Label {
	if t.Kind() == term.KindConst {
		return []lattice.Label{lattice.Label(t.Name())}
	}
	return r.Poset.Labels()
}

// MFact is a ground MLS fact from the model: the paper's rel(p,k,a,v,c,l).
type MFact struct {
	Pred  string
	Key   term.Term
	Attr  string
	Value term.Term
	Class lattice.Label
	Level lattice.Label
}

// MAtom converts the fact back to the surface representation.
func (f MFact) MAtom() MAtom {
	return MAtom{
		Level: term.Const(string(f.Level)),
		Pred:  f.Pred,
		Key:   f.Key,
		Attr:  f.Attr,
		Class: term.Const(string(f.Class)),
		Value: f.Value,
	}
}

// MFacts returns every derived m-fact (⟦Σ⟧), in a deterministic order.
// This is the set the consistency properties of Definition 5.4 quantify
// over.
func (r *Reduction) MFacts() ([]MFact, error) {
	model, err := r.Model()
	if err != nil {
		return nil, err
	}
	var out []MFact
	for _, p := range r.predList() {
		for _, l := range r.Poset.Labels() {
			for _, f := range model.Facts(relPred(p, l)) {
				out = append(out, MFact{
					Pred:  p,
					Key:   f.Args[0],
					Attr:  f.Args[1].Name(),
					Value: f.Args[2],
					Class: lattice.Label(f.Args[3].Name()),
					Level: l,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].MAtom().String() < out[j].MAtom().String()
	})
	return out, nil
}

// BeliefFacts returns every derived belief fact at the given level and
// mode, across all Σ predicates, as m-facts (the level field holds the
// belief level).
func (r *Reduction) BeliefFacts(l lattice.Label, m Mode) ([]MFact, error) {
	for _, p := range r.predList() {
		r.RequireBelief(p, l, m)
	}
	model, err := r.Model()
	if err != nil {
		return nil, err
	}
	var out []MFact
	for _, p := range r.predList() {
		for _, f := range model.Facts(belPred(p, l, m)) {
			out = append(out, MFact{
				Pred:  p,
				Key:   f.Args[0],
				Attr:  f.Args[1].Name(),
				Value: f.Args[2],
				Class: lattice.Label(f.Args[3].Name()),
				Level: l,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].MAtom().String() < out[j].MAtom().String()
	})
	return out, nil
}

// predList returns the Σ/query predicate names, sorted.
func (r *Reduction) predList() []string {
	out := make([]string, 0, len(r.preds))
	for p := range r.preds {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
