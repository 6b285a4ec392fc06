package compile

import (
	"context"
	"fmt"

	"repro/internal/multilog"
)

// PrepareReduction materializes a reduction's minimal model through the
// compiled engine and installs it for QueryPrepared. The returned bool
// reports which path prepared the reduction: true for the compiled engine,
// false when the compiler routed the program to the interpreter
// (*ErrFallback) and r.Prepare ran instead. Resource-limit and genuine
// errors propagate with the reduction left unprepared, matching Prepare.
// This is the server's cold build, once per clearance: writes advance the
// installed model as deltas (Reduction.Advance) and come here no more.
func PrepareReduction(ctx context.Context, r *multilog.Reduction, opts Options) (bool, error) {
	model, _, err := EvalContext(ctx, r.Program, nil, opts)
	if err != nil {
		if IsFallback(err) {
			return false, r.Prepare(ctx, opts.Limits)
		}
		return false, fmt.Errorf("multilog: reduced program: %w", err)
	}
	r.InstallPrepared(model)
	return true, nil
}
