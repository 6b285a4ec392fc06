package datalog

import (
	"context"
	"fmt"

	"repro/internal/resource"
	"repro/internal/term"
)

// Stats reports work done by an evaluation, for the benchmark harness and
// the naive-vs-semi-naive ablation.
type Stats struct {
	Iterations  int // fixpoint rounds summed over strata
	RuleFirings int // rule body evaluations attempted
	Derivations int // head instances produced (including duplicates)
	Facts       int // facts in the final model

	// Partial-progress report when evaluation is governed (EvalContext or a
	// non-zero Limits): how far it got and whether it was cut short.
	StrataCompleted int  // fully evaluated strata
	Truncated       bool // a limit, cancellation, or fault stopped evaluation early
	Resource        resource.Stats
}

// Evaluator computes the minimal model of a stratified Datalog program by
// bottom-up fixpoint iteration. The zero value evaluates semi-naively with
// indexing; fields may be toggled for ablation.
type Evaluator struct {
	Naive   bool // disable the semi-naive delta optimization
	NoIndex bool // disable argument indexing in the derived store
	// Parallel fires the (rule × delta) jobs of each round concurrently;
	// derivations become visible at round boundaries, so the model is
	// unchanged. Workers bounds the goroutines (0 = NumCPU). Parallel is
	// ignored when Naive is set.
	Parallel bool
	Workers  int
	// Limits bounds the evaluation (facts, steps, memory, probes). The zero
	// value is unlimited. Wall-clock deadlines come from the context passed
	// to EvalContext.
	Limits resource.Limits
	Stats  Stats

	gov *resource.Governor
	// stages, when set (EvalTrace), records for every new fact the T_P round
	// that produced it; stage is the current round, counted across strata.
	stages map[string]int
	stage  int
}

// approxAtomBytes estimates the bytes retained by one stored fact — the
// structural text size plus map/slice bookkeeping — for the MaxMemory budget.
func approxAtomBytes(a Atom) int64 {
	n := len(a.Pred) + 48 // relation bookkeeping: key map entry, facts slot
	for _, t := range a.Args {
		n += len(t.Key()) + 16
	}
	return int64(n)
}

// insert adds a derived fact to dst, charging the governor for new facts.
func (e *Evaluator) insert(dst *Store, a Atom) (bool, error) {
	added, err := dst.Insert(a)
	if err != nil {
		return false, err
	}
	if added {
		if e.stages != nil {
			e.stages[a.Key()] = e.stage
		}
		if err := e.gov.Insert(approxAtomBytes(a)); err != nil {
			return true, err
		}
	}
	return added, nil
}

// Eval computes the minimal model of program ∪ edb. edb may be nil. The
// returned store contains the EDB facts plus everything derivable. Eval
// fails if the program is unsafe or not stratifiable.
func (e *Evaluator) Eval(p *Program, edb *Store) (*Store, error) {
	return e.EvalContext(context.Background(), p, edb)
}

// EvalContext is Eval bounded by ctx and e.Limits. On a resource-limit stop
// (resource.IsLimit(err)) it returns the partial model computed so far
// alongside the error; e.Stats reports how far it got.
func (e *Evaluator) EvalContext(ctx context.Context, p *Program, edb *Store) (*Store, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	strata, err := Strata(p)
	if err != nil {
		return nil, err
	}
	e.gov = resource.New(ctx, e.Limits)
	var full *Store
	if e.NoIndex {
		full = NewStoreNoIndex()
	} else {
		full = NewStore()
	}
	if edb != nil {
		// The fault hook rides along so injected store failures reach the
		// derived store, not just the caller's EDB.
		full.InsertFault = edb.InsertFault
		for _, pred := range edb.Preds() {
			for _, f := range edb.Facts(pred) {
				if _, err := e.insert(full, f); err != nil {
					return e.finish(full, err)
				}
			}
		}
	}
	for _, clauses := range strata {
		if err := e.evalStratum(clauses, full); err != nil {
			return e.finish(full, err)
		}
		e.Stats.StrataCompleted++
		if err := e.gov.StratumDone(); err != nil {
			return e.finish(full, err)
		}
	}
	return e.finish(full, nil)
}

// finish records final stats and shapes the return: limit errors keep the
// partial store so callers see how far evaluation got.
func (e *Evaluator) finish(full *Store, err error) (*Store, error) {
	e.Stats.Facts = full.Len()
	e.Stats.Resource = e.gov.Snapshot()
	if err != nil {
		e.Stats.Truncated = true
		e.Stats.Resource.Truncated = true
		if resource.IsLimit(err) {
			return full, err
		}
		return nil, err
	}
	return full, nil
}

// Eval is a convenience wrapper: semi-naive evaluation with default options.
func Eval(p *Program, edb *Store) (*Store, error) {
	var e Evaluator
	return e.Eval(p, edb)
}

// EvalLimited is Eval bounded by ctx and limits; it returns the (possibly
// partial) model, the evaluation stats, and the error, if any.
func EvalLimited(ctx context.Context, p *Program, edb *Store, limits resource.Limits) (*Store, Stats, error) {
	e := Evaluator{Limits: limits}
	model, err := e.EvalContext(ctx, p, edb)
	return model, e.Stats, err
}

// job is one rule firing of a fixpoint round: the whole body against the
// model, or (deltaLit ≥ 0) with that literal restricted to the facts the
// previous round added.
type job struct {
	clause   Clause
	deltaLit int
}

// evalStratum iterates the clauses of one stratum to fixpoint against full,
// which already contains all lower strata. It is the one stratum loop: the
// sequential, parallel and staged (EvalTrace) evaluations differ only in
// runRound.
func (e *Evaluator) evalStratum(clauses []Clause, full *Store) error {
	// Facts fire once.
	var rules []Clause
	for _, c := range clauses {
		if c.IsFact() {
			if !c.Head.IsGround() {
				return fmt.Errorf("datalog: non-ground fact %s", c.Head)
			}
			if _, err := e.insert(full, c.Head); err != nil {
				return err
			}
		} else {
			rules = append(rules, c)
		}
	}
	if len(rules) == 0 {
		e.stage++ // T_P takes one (empty) round to find the stratum closed
		return nil
	}
	// Which predicates are defined by rules in this stratum? Those are the
	// ones whose growth drives re-evaluation.
	idb := map[string]bool{}
	for _, c := range rules {
		idb[c.Head.Pred] = true
	}

	// The first round evaluates every rule fully, and so does every naive
	// round; a later semi-naive round requires one body literal to match the
	// previous round's delta.
	var delta *Store
	for {
		e.Stats.Iterations++
		e.stage++
		if err := e.gov.Check(); err != nil {
			return err
		}
		var jobs []job
		for _, c := range rules {
			if delta == nil {
				jobs = append(jobs, job{c, -1})
				continue
			}
			for i, l := range c.Body {
				if l.Negated || l.Atom.IsBuiltin() || !idb[l.Atom.Pred] {
					continue
				}
				if len(delta.Facts(l.Atom.Pred)) == 0 {
					continue
				}
				jobs = append(jobs, job{c, i})
			}
		}
		next := NewStore()
		err := e.runRound(jobs, full, delta, func(head Atom) error {
			e.Stats.Derivations++
			added, err := e.insert(full, head)
			if err != nil {
				return err
			}
			if added {
				next.Insert(head) //nolint:errcheck // ground: just inserted into full
			}
			return nil
		})
		if err != nil {
			return err
		}
		if next.Len() == 0 {
			return nil
		}
		if !e.Naive {
			delta = next
		}
	}
}

// runRound fires one round's jobs and hands every derived head to sink, which
// makes it visible in full. Sequentially a head is sunk the moment it is
// derived, so later jobs of the same round already see it. The parallel and
// staged variants buffer each job's heads and sink them in job order after
// the last job, so heads become visible at the round boundary: the same
// minimal model, possibly in a different number of rounds — and, because
// sinking stays sequential, with deterministic insert accounting.
func (e *Evaluator) runRound(jobs []job, full, delta *Store, sink func(Atom) error) error {
	fire := func(j job, emit func(Atom) error) error {
		v := storeView{live: full, delta: delta, deltaLit: j.deltaLit}
		return solveBody(e.gov, j.clause, -1, term.Subst{}, v, func(s term.Subst) error {
			head, err := headOf(j.clause, s)
			if err != nil {
				return err
			}
			return emit(head)
		})
	}
	parallel := e.Parallel && !e.Naive
	if !parallel && e.stages == nil {
		for _, j := range jobs {
			e.Stats.RuleFirings++
			if err := fire(j, sink); err != nil {
				return err
			}
		}
		return nil
	}
	e.Stats.RuleFirings += len(jobs)
	workers := 1
	if parallel {
		workers = e.Workers
	}
	results, err := fireBuffered(jobs, workers, fire)
	if err != nil {
		return err
	}
	for _, heads := range results {
		for _, head := range heads {
			if err := sink(head); err != nil {
				return err
			}
		}
	}
	return nil
}

// headOf instantiates c's head under a solution of its body.
func headOf(c Clause, s term.Subst) (Atom, error) {
	head := c.Head.Apply(s)
	if !head.IsGround() {
		return Atom{}, fmt.Errorf("datalog: derived non-ground head %s from %s", head, c)
	}
	return head, nil
}

// storeView is what a body enumeration matches against. The evaluator's view
// is the model with, in a semi-naive round, body literal deltaLit redirected
// to delta. The incremental engine widens positive matches with grave, the
// tuples removed earlier in the same delta (an over-approximation of the
// pre-delta model), and lists in negSkip the atom keys added by this delta,
// which negation checks must treat as absent when the enumeration asks
// about the pre-delta state.
type storeView struct {
	live     *Store
	delta    *Store // nil: no literal is redirected
	deltaLit int
	grave    *Store
	negSkip  map[string]bool
}

func (v storeView) contains(g Atom) bool {
	if v.negSkip != nil && v.negSkip[g.Key()] {
		return false
	}
	return v.live.Contains(g)
}

// match is Store.Match over the view: live, then grave. Like Store.Match it
// binds each candidate into s and undoes it, so fn's argument is s, borrowed
// until fn returns.
func (v storeView) match(a Atom, s term.Subst, fn func(term.Subst) bool) {
	if v.grave == nil {
		v.live.Match(a, s, fn)
		return
	}
	stopped := false
	v.live.Match(a, s, func(s2 term.Subst) bool {
		stopped = !fn(s2)
		return !stopped
	})
	if !stopped {
		v.grave.Match(a, s, fn)
	}
}

// solveBody is the one body solver: it enumerates every substitution
// extending s that satisfies c's body against v and calls emit with each.
// Literal skip, if ≥ 0, is taken as already consumed by the caller (who bound
// it in s). Literals are consumed in a "first ready" order: built-in '!='
// and negated literals wait until ground, which safety guarantees will
// happen. Every node of the enumeration is one governor step.
//
// The enumeration binds into s itself and undoes every binding on the way
// back, so emit's argument is s, borrowed until emit returns, and s is as
// the caller passed it when solveBody returns.
func solveBody(gov *resource.Governor, c Clause, skip int, s term.Subst, v storeView, emit func(term.Subst) error) error {
	// The literals a node at depth d has yet to solve, in written order, are
	// the d-th of a run of segments of one buffer, n, n-1, …, 1 long: a node
	// writes its children's into the rest of the buffer, which no node above
	// it reads.
	n := len(c.Body)
	if skip >= 0 {
		n--
	}
	buf := make([]int, n*(n+1)/2)
	remaining := buf[:0]
	for i := range c.Body {
		if i != skip {
			remaining = append(remaining, i)
		}
	}
	var rec func(rem, free []int) error
	rec = func(rem, free []int) error {
		if err := gov.Step(); err != nil {
			return err
		}
		if len(rem) == 0 {
			return emit(s)
		}
		// Pick the first ready literal.
		pick := -1
		for pi, bi := range rem {
			l := c.Body[bi]
			switch {
			case !l.Negated && !l.Atom.IsBuiltin():
				pick = pi
			case l.Atom.Pred == BuiltinEq && !l.Negated:
				pick = pi
			default: // '!=' or negation: ready only when ground
				if l.Apply(s).Atom.IsGround() {
					pick = pi
				}
			}
			if pick >= 0 {
				break
			}
		}
		if pick < 0 {
			return fmt.Errorf("datalog: floundering clause %s (validate should have caught this)", c)
		}
		bi := rem[pick]
		rest := append(append(free[:0], rem[:pick]...), rem[pick+1:]...)
		free = free[len(rest):]
		l := c.Body[bi]
		switch {
		case l.Atom.Pred == BuiltinEq:
			var tb [4]string
			trail, ok := term.UnifyTrail(l.Atom.Args[0], l.Atom.Args[1], s, tb[:0])
			var err error
			if ok {
				err = rec(rest, free)
			}
			s.Undo(trail)
			return err
		case l.Atom.Pred == BuiltinNeq:
			g := l.Atom.Apply(s)
			if !g.Args[0].Equal(g.Args[1]) {
				return rec(rest, free)
			}
			return nil
		case l.Negated:
			if !v.contains(l.Atom.Apply(s)) {
				return rec(rest, free)
			}
			return nil
		default:
			var innerErr error
			each := func(term.Subst) bool {
				innerErr = rec(rest, free)
				return innerErr == nil
			}
			if v.delta != nil && bi == v.deltaLit {
				v.delta.Match(l.Atom, s, each)
			} else {
				v.match(l.Atom, s, each)
			}
			return innerErr
		}
	}
	return rec(remaining, buf[n:])
}

// Query evaluates the program and returns every substitution (restricted to
// the goal's variables) making goal true in the minimal model, in a
// deterministic order.
func Query(p *Program, edb *Store, goal Atom) ([]term.Subst, error) {
	model, err := Eval(p, edb)
	if err != nil {
		return nil, err
	}
	return QueryStore(model, goal), nil
}

// QueryLimited is Query bounded by ctx and limits. On a resource-limit stop
// it returns the answers found in the partial model alongside the error.
func QueryLimited(ctx context.Context, p *Program, edb *Store, goal Atom, limits resource.Limits) ([]term.Subst, Stats, error) {
	model, stats, err := EvalLimited(ctx, p, edb, limits)
	if err != nil && !resource.IsLimit(err) {
		return nil, stats, err
	}
	if model == nil {
		return nil, stats, err
	}
	return QueryStore(model, goal), stats, err
}

// QueryStore matches goal against an already-computed model. It performs
// no evaluation: the work is a bounded scan of the store.
//
//vet:allow govcontext -- bounded lookup over a materialized model
func QueryStore(model *Store, goal Atom) []term.Subst {
	goalVars := map[string]bool{}
	for _, v := range goal.Vars(nil) {
		goalVars[v] = true
	}
	var out []term.Subst
	seen := map[string]bool{}
	model.Match(goal, term.Subst{}, func(s term.Subst) bool {
		restricted := term.Subst{}
		for v := range goalVars {
			restricted[v] = s.Apply(term.Var(v))
		}
		k := restricted.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, restricted)
		}
		return true
	})
	return out
}
