package differential

import (
	"context"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
	"repro/internal/resource"
)

// runnerCorpus is the differential corpus the runner table quantifies over:
// the generated Datalog families (deduplicated — cases share programs across
// goals) and the reductions of generated MultiLog databases at every user
// level, which add the negation, strata and wide atoms of the engine axioms.
func runnerCorpus(t *testing.T) []*datalog.Program {
	t.Helper()
	var out []*datalog.Program
	seen := map[*datalog.Program]bool{}
	for _, c := range DatalogPrograms(1, 32) {
		if !seen[c.Program] {
			seen[c.Program] = true
			out = append(out, c.Program)
		}
	}
	type key struct {
		db   *multilog.Database
		user string
	}
	reduced := map[key]bool{}
	for _, c := range MultiLogPrograms(1, 6) {
		k := key{c.DB, string(c.User)}
		if reduced[k] {
			continue
		}
		reduced[k] = true
		red, err := multilog.Reduce(c.DB, c.User)
		if err != nil {
			t.Fatalf("reduce seed %d at %s: %v", c.Seed, c.User, err)
		}
		out = append(out, red.Program)
	}
	return out
}

// work is what the faultinject truncation points and the EXPERIMENTS P4/P7
// tables read off a sequential evaluation.
type work struct {
	Iterations, RuleFirings, Derivations int
	Steps                                int64
}

// TestBottomUpRunnersAgree runs the four ways of driving a fixpoint round —
// sequential, parallel with 1 and 4 workers, and staged (EvalTrace) — over
// the corpus and requires one model. The sequential arms' work counters are
// pinned to the values the pre-consolidation evaluator produced: the shared
// stratum driver and body solver must not change how much work a program is.
func TestBottomUpRunnersAgree(t *testing.T) {
	// The step budget is never reached; it makes the governor count.
	counting := resource.Limits{MaxSteps: 1 << 40}
	var semi, naive work
	add := func(w *work, e *datalog.Evaluator) {
		w.Iterations += e.Stats.Iterations
		w.RuleFirings += e.Stats.RuleFirings
		w.Derivations += e.Stats.Derivations
		w.Steps += e.Stats.Resource.Steps
	}
	corpus := runnerCorpus(t)
	for i, p := range corpus {
		seq := datalog.Evaluator{Limits: counting}
		want, err := seq.Eval(p, nil)
		if err != nil {
			t.Fatalf("program %d: sequential: %v", i, err)
		}
		add(&semi, &seq)
		nv := datalog.Evaluator{Naive: true, Limits: counting}
		arms := map[string]func() (*datalog.Store, error){
			"naive":       func() (*datalog.Store, error) { return nv.Eval(p, nil) },
			"parallel/w1": func() (*datalog.Store, error) { return (&datalog.Evaluator{Parallel: true, Workers: 1}).Eval(p, nil) },
			"parallel/w4": func() (*datalog.Store, error) { return (&datalog.Evaluator{Parallel: true, Workers: 4}).Eval(p, nil) },
			"trace": func() (*datalog.Store, error) {
				m, stages, err := datalog.EvalTraceLimited(context.Background(), p, nil, resource.Limits{})
				if err == nil && len(stages) != m.Len() {
					t.Errorf("program %d: trace staged %d of %d facts", i, len(stages), m.Len())
				}
				return m, err
			},
		}
		for name, run := range arms {
			got, err := run()
			if err != nil {
				t.Fatalf("program %d: %s: %v", i, name, err)
			}
			if got.String() != want.String() {
				t.Errorf("program %d: %s model differs from sequential:\n%s\nvs\n%s\nprogram:\n%s", i, name, got, want, p)
			}
		}
		add(&naive, &nv)
	}
	// Recorded at commit 0b2a56c (the parent of the consolidation).
	wantSemi := work{Iterations: 218, RuleFirings: 1861, Derivations: 1742, Steps: 5972}
	wantNaive := work{Iterations: 208, RuleFirings: 3511, Derivations: 3851, Steps: 10611}
	if semi != wantSemi {
		t.Errorf("semi-naive work over %d programs = %+v, want %+v", len(corpus), semi, wantSemi)
	}
	if naive != wantNaive {
		t.Errorf("naive work over %d programs = %+v, want %+v", len(corpus), naive, wantNaive)
	}
}
