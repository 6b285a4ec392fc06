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

// kept keeps an oracle's builds — a program's model, a database's
// reduction at a clearance — one per key, so that a campaign builds each
// once and asks it every goal. What a key names must not change once it is
// built.
type kept[K comparable, V any] map[K]*built[V]

type built[V any] struct {
	v   V
	err error
}

func (k kept[K, V]) at(key K, build func() (V, error)) (V, error) {
	b := k[key]
	if b == nil {
		b = &built[V]{}
		b.v, b.err = build()
		k[key] = b
	}
	return b.v, b.err
}

// models keeps a bottom-up oracle's minimal models, one per program.
type models = kept[*datalog.Program, *datalog.Store]

// bottomUpOracle covers the four fixpoint strategies (naive, semi-naive,
// no-index, parallel) via the Evaluator toggles.
type bottomUpOracle struct {
	name     string
	naive    bool
	noIndex  bool
	parallel bool
	models   models
}

func (o bottomUpOracle) Name() string { return o.name }

func (o bottomUpOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	model, err := o.models.at(p, func() (*datalog.Store, error) {
		e := datalog.Evaluator{Naive: o.naive, NoIndex: o.noIndex, Parallel: o.parallel}
		return e.Eval(p, nil)
	})
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
type compiledOracle struct{ models models }

func (compiledOracle) Name() string { return "compiled" }

func (o compiledOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	model, err := o.models.at(p, func() (*datalog.Store, error) {
		model, _, err := compile.EvalContext(context.Background(), p, nil, compile.Options{})
		if compile.IsFallback(err) {
			return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
		}
		return model, unsupported(err)
	})
	if err != nil {
		return Result{}, err
	}
	return substResult(datalog.QueryStore(model, goal)), nil
}

// DatalogOracles returns the full oracle set, semi-naive first (it is the
// reference implementation the others are compared against). The bottom-up
// oracles keep each program's model for as long as the oracles live.
func DatalogOracles() []DatalogOracle {
	return []DatalogOracle{
		bottomUpOracle{name: "semi-naive", models: models{}},
		bottomUpOracle{name: "naive", naive: true, models: models{}},
		bottomUpOracle{name: "no-index", noIndex: true, models: models{}},
		bottomUpOracle{name: "parallel", parallel: true, models: models{}},
		magicOracle{},
		// The step budget is the real guard: on cyclic or left-recursive
		// programs SLD explores exponentially many bounded-depth paths, so
		// a depth bound alone never fires in reasonable time. Bounded
		// cases come back ErrUnsupported in milliseconds and are skipped.
		sldOracle{maxDepth: 64, maxSteps: 5_000},
		tabledOracle{},
		incrementalOracle{models{}},
		compiledOracle{models{}},
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
// clearance.
type reductions = kept[reductionKey, *multilog.Reduction]

type reductionKey struct {
	db   *multilog.Database
	user lattice.Label
}

// reduceOracle is the Figure 12 reduction to the classical engine. A kept
// reduction answers as a fresh one: Query registers the belief axioms q
// needs and rebuilds its cached model only when that adds one.
type reduceOracle struct{ reds reductions }

func (reduceOracle) Name() string { return "reduce" }

func (o reduceOracle) Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error) {
	red, err := o.reds.at(reductionKey{db, user}, func() (*multilog.Reduction, error) { return multilog.Reduce(db, user) })
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
type compiledReduceOracle struct{ reds reductions }

func (compiledReduceOracle) Name() string { return "reduce-compiled" }

func (o compiledReduceOracle) Answer(db *multilog.Database, user lattice.Label, q multilog.Query) (Result, error) {
	red, err := o.reds.at(reductionKey{db, user}, func() (*multilog.Reduction, error) {
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
