package multilog_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// TestPatchPlanPatchable pins which queries a delta can patch: one goal, not
// a builtin, whose positions are ground or variables none of the others
// repeats.
func TestPatchPlanPatchable(t *testing.T) {
	red := prepared(t, multilog.D1(), "s")
	for q, want := range map[string]bool{
		"L[p(K: a -C-> V)]":           true,
		"u[p(k: a -u-> v)]":           true,
		"L[p(K: a -C-> V)] << opt":    true,
		"c[p(k: a -C-> V)] << cau":    true,
		"L[p(K: a -C-> _)]":           true,
		"level(X)":                    true,
		"order(X, Y)":                 true,
		"order(X, X)":                 false,
		"L[p(K: a -L-> V)]":           false,
		"L[p(K: a -C-> K)] << fir":    false,
		"L[p(K: a -C-> V)], K = k":    false,
		"L[p(K: a -C-> V)], level(C)": false,
		"X = u":                       false,
		"X != u":                      false,
	} {
		if got := red.PatchPlan(mustGoals(t, q)) != nil; got != want {
			t.Errorf("%s: patchable %v, want %v", q, got, want)
		}
	}
}

// TestPatchTouchDependsOnlyOnDominatedLevels: a write of visible facts and
// the same write with facts a clearance below the top may not see — facts at
// the top level, classified top or bottom, and facts at the bottom level
// classified top — touch the
// same tuples of every single-goal probe at every such clearance and in
// every mode, in both directions: asserted, and retracted again. Which
// tuples touch decides whether a cache patches an entry or drops it for
// overflow, which a reader sees; counting hidden ones would be a channel from
// above the clearance. And the patch is the write: the answers before it,
// less those the deleted tuples make, plus those the added ones make, are
// the answers after it.
func TestPatchTouchDependsOnlyOnDominatedLevels(t *testing.T) {
	const levels = 4
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{Levels: levels, Facts: 100, Rules: 8, Preds: 2, Poly: 0.3, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	top := workload.Level(levels - 1)
	clauses := func(src string) []multilog.Clause {
		d, err := multilog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return d.Sigma
	}
	visible := clauses("l0[p0(w0: a -l0-> v1)].\nl1[p1(w1: a -l1-> v2)].\nl0[p0(k1: a -l0-> v3)].\n")
	var b strings.Builder
	for i := 0; i < 40; i++ {
		for p := 0; p < 2; p++ {
			fmt.Fprintf(&b, "%[1]s[p%[2]d(t%[3]d: a -%[1]s-> v1)].\n%[1]s[p%[2]d(b%[3]d: a -%[4]s-> v1)].\n%[4]s[p%[2]d(h%[3]d: a -%[1]s-> v1)].\n",
				top, p, i, workload.Level(0))
		}
	}
	hidden := append(append([]multilog.Clause{}, visible...), clauses(b.String())...)

	probes := []string{"L[p0(K: a -C-> V)]", "l0[p0(K: a -C-> V)]", "L[p1(K: a -C-> V)]", "L[p0(k1: a -C-> V)]", "L[p0(K: a -C-> v1)]"}
	keys := func(answers []multilog.Answer) []string {
		var out []string
		for _, a := range answers {
			out = append(out, a.Key)
		}
		return out
	}
	ctx, touched := context.Background(), 0
	for l := 0; l < levels-1; l++ {
		u := workload.Level(l)
		base := prepared(t, db, u)
		for _, dir := range []string{"assert", "retract"} {
			old, adds, hadds, dels, hdels := base, visible, hidden, []multilog.Clause(nil), []multilog.Clause(nil)
			if dir == "retract" {
				if old, _, err = base.Advance(ctx, nil, hidden, nil, resource.Limits{}); err != nil {
					t.Fatal(err)
				}
				adds, hadds, dels, hdels = nil, hidden[len(visible):], visible, hidden
			}
			low, repLow, err := old.Advance(ctx, nil, adds, dels, resource.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			_, repHigh, err := old.Advance(ctx, nil, hadds, hdels, resource.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range planModes {
				for _, src := range probes {
					if m != "" {
						src += " << " + string(m)
					}
					q := mustGoals(t, src)
					plan := old.PatchPlan(q)
					if plan == nil {
						t.Fatalf("%s is not patchable", src)
					}
					add, del := plan.Touching(repLow.Changed, nil, nil)
					hadd, hdel := plan.Touching(repHigh.Changed, nil, nil)
					if fmt.Sprint(add, del) != fmt.Sprint(hadd, hdel) {
						t.Errorf("at %s, %s: the %s touches %v %v, with hidden facts %v %v", u, src, dir, add, del, hadd, hdel)
					}
					touched += len(add) + len(del)
					before, _, err1 := old.QueryPrepared(ctx, q, resource.Limits{})
					after, _, err2 := low.QueryPrepared(ctx, q, resource.Limits{})
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					patched := keys(before)
					for _, a := range plan.Answers(del) {
						if i := slices.Index(patched, a.Key); i >= 0 {
							patched = slices.Delete(patched, i, i+1)
						} else {
							t.Errorf("at %s, %s: the %s deletes %s, not an answer before it", u, src, dir, a.Key)
						}
					}
					patched = append(patched, keys(plan.Answers(add))...)
					slices.Sort(patched)
					if want := keys(after); !slices.Equal(patched, want) {
						t.Errorf("at %s, %s: the %s patches the answers to %v, want %v", u, src, dir, patched, want)
					}
				}
			}
		}
	}
	if touched == 0 {
		t.Fatal("no write touched a probe: the test compared nothing")
	}
}
