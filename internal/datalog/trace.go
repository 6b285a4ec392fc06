package datalog

import (
	"context"

	"repro/internal/resource"
)

// EvalTrace computes the minimal model like Eval, additionally recording
// for every fact the fixpoint stage at which it first appeared: stage 0
// holds the EDB, a stratum's facts take the last stage of the stratum
// below, and each naive round increments the stage. The trace realizes the
// T_P operator's stage structure that the paper's Theorem 6.1 proof sketch
// appeals to ("the goal τ(G)[θ] is computed at step k by the fix-point
// operator T_Δr").
//
// The evaluation is naive (full rounds) and staged (a round's heads become
// visible when the round ends), because stage numbers are defined by T_P
// iterations, not by semi-naive delta bookkeeping.
func EvalTrace(p *Program, edb *Store) (*Store, map[string]int, error) {
	return EvalTraceLimited(context.Background(), p, edb, resource.Limits{})
}

// EvalTraceLimited is EvalTrace bounded by ctx and limits, like EvalContext;
// a stopped trace returns no partial model.
func EvalTraceLimited(ctx context.Context, p *Program, edb *Store, limits resource.Limits) (*Store, map[string]int, error) {
	e := Evaluator{Naive: true, Limits: limits, stages: map[string]int{}}
	model, err := e.EvalContext(ctx, p, edb)
	if err != nil {
		return nil, nil, err
	}
	return model, e.stages, nil
}
