package differential

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/compile"
	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
)

// ErrUnsupported marks a program/query combination an oracle legitimately
// cannot answer (e.g. plain SLD on a left-recursive or cyclic program hits
// its depth bound). Unsupported oracles are skipped, not counted as
// disagreements.
var ErrUnsupported = errors.New("differential: oracle does not support this case")

// unsupported wraps bound-exhaustion errors as ErrUnsupported; anything
// else is a real failure the harness must report. Resource-governance stops
// (cancellation, budget exhaustion) are bound exhaustion too: a truncated
// oracle has no complete answer to compare, which is not a disagreement.
func unsupported(err error) error {
	if err == nil {
		return nil
	}
	if resource.IsLimit(err) {
		return fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	msg := err.Error()
	if strings.Contains(msg, "depth bound") || strings.Contains(msg, "exceeded") {
		return fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	return err
}

// DatalogOracle answers a single goal against a Datalog program. Answers
// are canonicalized so any two oracles are directly comparable.
type DatalogOracle interface {
	Name() string
	Answer(p *datalog.Program, goal datalog.Atom) (Result, error)
}

// bottomUpOracle covers the four fixpoint strategies (naive, semi-naive,
// no-index, parallel) via the Evaluator toggles.
type bottomUpOracle struct {
	name     string
	naive    bool
	noIndex  bool
	parallel bool
}

func (o bottomUpOracle) Name() string { return o.name }

func (o bottomUpOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	e := datalog.Evaluator{Naive: o.naive, NoIndex: o.noIndex, Parallel: o.parallel}
	model, err := e.Eval(p, nil)
	if err != nil {
		return Result{}, err
	}
	return substResult(datalog.QueryStore(model, goal)), nil
}

// magicOracle evaluates through the magic-sets rewriting (falling back to
// plain evaluation where the rewriting is inapplicable, as QueryMagic does).
type magicOracle struct{}

func (magicOracle) Name() string { return "magic" }

func (magicOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	subs, err := datalog.QueryMagic(p, nil, goal)
	if err != nil {
		return Result{}, err
	}
	return substResult(subs), nil
}

// sldOracle is the top-down resolution prover. Bound exhaustion (left
// recursion, cyclic data) reports ErrUnsupported.
type sldOracle struct {
	maxDepth int
	maxSteps int
}

func (sldOracle) Name() string { return "sld" }

func (o sldOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	s := datalog.NewSLD(p)
	s.MaxDepth = o.maxDepth
	s.MaxSteps = o.maxSteps
	answers, err := s.Prove(goal, 0)
	if err != nil {
		return Result{}, unsupported(err)
	}
	tuples := make([]string, len(answers))
	for i, a := range answers {
		tuples[i] = a.Bindings.String()
	}
	return NewResult(tuples), nil
}

// tabledOracle is the OLDT-style tabled evaluator.
type tabledOracle struct{ maxRounds int }

func (tabledOracle) Name() string { return "tabled" }

func (o tabledOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	tb := datalog.NewTabled(p)
	tb.MaxRounds = o.maxRounds
	subs, err := tb.Prove(goal)
	if err != nil {
		return Result{}, unsupported(err)
	}
	return substResult(subs), nil
}

// compiledOracle is the compiled bottom-up engine (internal/compile):
// interned terms, columnar relations, plan-cache execution. Programs the
// compiler routes to the interpreter (*ErrFallback — e.g. DL010 nonlinear
// recursion, which FamSameGen never triggers but hand-shrunk cases can)
// are reported unsupported rather than silently answered by a different
// engine.
type compiledOracle struct{}

func (compiledOracle) Name() string { return "compiled" }

func (compiledOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	model, _, err := compile.EvalContext(context.Background(), p, nil, compile.Options{})
	if err != nil {
		if compile.IsFallback(err) {
			return Result{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
		}
		return Result{}, unsupported(err)
	}
	return substResult(datalog.QueryStore(model, goal)), nil
}

// DatalogOracles returns the full oracle set, semi-naive first (it is the
// reference implementation the others are compared against).
func DatalogOracles() []DatalogOracle {
	return []DatalogOracle{
		bottomUpOracle{name: "semi-naive"},
		bottomUpOracle{name: "naive", naive: true},
		bottomUpOracle{name: "no-index", noIndex: true},
		bottomUpOracle{name: "parallel", parallel: true},
		magicOracle{},
		// The step budget is the real guard: on cyclic or left-recursive
		// programs SLD explores exponentially many bounded-depth paths, so
		// a depth bound alone never fires in reasonable time. Bounded
		// cases come back ErrUnsupported in milliseconds and are skipped.
		sldOracle{maxDepth: 64, maxSteps: 5_000},
		tabledOracle{},
		incrementalOracle{},
		compiledOracle{},
	}
}

// MultiLogOracle answers a conjunctive MultiLog query at a user level.
type MultiLogOracle interface {
	Name() string
	Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error)
}

// proverOracle is the Figure 9 goal-directed operational semantics.
type proverOracle struct{ maxDepth int }

func (proverOracle) Name() string { return "prove" }

func (o proverOracle) Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error) {
	pr, err := multilog.NewProver(db, user)
	if err != nil {
		return Result{}, err
	}
	if o.maxDepth > 0 {
		pr.MaxDepth = o.maxDepth
	}
	answers, err := pr.Prove(q, 0)
	if err != nil {
		return Result{}, unsupported(err)
	}
	tuples := make([]string, len(answers))
	for i, a := range answers {
		tuples[i] = a.Bindings.String()
	}
	return NewResult(tuples), nil
}

// reductions keeps a reducing oracle's reductions, one per database and
// clearance, so that a campaign builds each once and asks it every query of
// that clearance. A database must not change once it is reduced.
type reductions map[reductionKey]*kept

type reductionKey struct {
	db   *multilog.Database
	user lattice.Label
}

type kept struct {
	red *multilog.Reduction
	err error
}

func (rs reductions) at(db *multilog.Database, user lattice.Label, build func() (*multilog.Reduction, error)) (*multilog.Reduction, error) {
	k := reductionKey{db, user}
	if rs[k] == nil {
		rs[k] = &kept{}
		rs[k].red, rs[k].err = build()
	}
	return rs[k].red, rs[k].err
}

// reduceOracle is the Figure 12 reduction to the classical engine. A kept
// reduction answers as a fresh one: Query registers the belief axioms q
// needs and rebuilds its cached model only when that adds one.
type reduceOracle struct{ kept reductions }

func (reduceOracle) Name() string { return "reduce" }

func (o reduceOracle) Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error) {
	red, err := o.kept.at(db, user, func() (*multilog.Reduction, error) { return multilog.Reduce(db, user) })
	if err != nil {
		return Result{}, err
	}
	answers, err := red.Query(q)
	if err != nil {
		return Result{}, err
	}
	return answerResult(answers), nil
}

func answerResult(answers []multilog.Answer) Result {
	tuples := make([]string, len(answers))
	for i, a := range answers {
		tuples[i] = a.Bindings.String()
	}
	return NewResult(tuples)
}

// compiledReduceOracle runs the same Figure 12 reduction, but materializes
// the minimal model through the compiled engine (PrepareReduction) and
// answers via QueryPrepared. It must byte-agree with reduceOracle — and,
// through Theorem 6.1, with the prover — at every clearance and belief
// mode.
type compiledReduceOracle struct{ kept reductions }

func (compiledReduceOracle) Name() string { return "reduce-compiled" }

func (o compiledReduceOracle) Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error) {
	red, err := o.kept.at(db, user, func() (*multilog.Reduction, error) {
		red, err := multilog.Reduce(db, user)
		if err != nil {
			return nil, err
		}
		_, err = compile.PrepareReduction(context.Background(), red, compile.Options{})
		return red, unsupported(err)
	})
	if err != nil {
		return Result{}, err
	}
	answers, _, err := red.QueryPrepared(context.Background(), q, resource.Limits{})
	if err != nil {
		return Result{}, unsupported(err)
	}
	return answerResult(answers), nil
}

// MultiLogOracles returns the MultiLog semantics, reduction first (it is
// the reference: Theorem 6.1 equates the prover to it), plus the
// compiled-engine reduction. The reducing oracles keep each database's
// reductions for as long as the oracles live.
func MultiLogOracles() []MultiLogOracle {
	return []MultiLogOracle{reduceOracle{reductions{}}, proverOracle{maxDepth: 512}, compiledReduceOracle{reductions{}}}
}
