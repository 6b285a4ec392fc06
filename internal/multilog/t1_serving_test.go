package multilog_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
)

// TestTheorem61OnServingPath is Theorem 6.1 on the models the server
// serves: the T1 corpus (TestTheorem61Randomized's seeded databases) at
// every level, each reduction prepared as a cold build prepares a
// clearance — compile.PrepareReduction: the compiled engine, or the
// interpreter where the compiler declines the program — answers every probe
// through QueryPrepared as the operational prover does. It logs how many
// reductions the compiler declined, by the construct it refused.
func TestTheorem61OnServingPath(t *testing.T) {
	ctx := context.Background()
	reductions, declined := 0, map[string]int{}
	for seed := int64(0); seed < 25; seed++ {
		db, levels := multilog.RandomDatabase(rand.New(rand.NewSource(seed)))
		for _, user := range levels {
			red, err := multilog.Reduce(db, user)
			if err != nil {
				t.Fatalf("seed %d user %s: %v", seed, user, err)
			}
			compiled, err := compile.PrepareReduction(ctx, red, compile.Options{})
			if err != nil {
				t.Fatalf("seed %d user %s: prepare: %v", seed, user, err)
			}
			reductions++
			if !compiled {
				var fb *compile.ErrFallback
				if _, err := compile.Compile(red.Program); !errors.As(err, &fb) {
					t.Fatalf("seed %d user %s: the interpreter built the model, but the compiler says %v", seed, user, err)
				}
				declined[fb.Construct]++
			}
			prover, err := multilog.NewProver(db, user)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range multilog.T1Probes(levels) {
				q, err := multilog.ParseGoals(src)
				if err != nil {
					t.Fatal(err)
				}
				served, _, err := red.QueryPrepared(ctx, q, resource.Limits{})
				if err != nil {
					t.Fatalf("seed %d user %s query %s: %v", seed, user, src, err)
				}
				proved, err := prover.Prove(q, 0)
				if err != nil {
					t.Fatalf("seed %d user %s query %s: operational: %v", seed, user, src, err)
				}
				var got, want []term.Subst
				for _, a := range served {
					got = append(got, a.Bindings)
				}
				for _, a := range proved {
					want = append(want, a.Bindings)
				}
				if got, want := bindingSet(got), bindingSet(want); !slices.Equal(got, want) {
					t.Fatalf("seed %d user %s query %s:\nserved %v\nproved %v\nprogram:\n%s", seed, user, src, got, want, db)
				}
			}
		}
	}
	t.Logf("%d reductions of the T1 corpus, declined by the compiler: %v", reductions, declined)
}

// bindingSet returns the distinct bindings, rendered and sorted.
func bindingSet(bindings []term.Subst) []string {
	var out []string
	for _, b := range bindings {
		out = append(out, b.String())
	}
	slices.Sort(out)
	return slices.Compact(out)
}
