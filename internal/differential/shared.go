package differential

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/compile"
	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// This file is the oracle behind the server's shared serving: for a database
// every clause of which is a multilog.MonotoneClause, the reduction at a
// maximal level s, read at a clearance u ⪯ s (Reduction.View), must answer
// every query exactly as the reduction at u — answers, match steps, patch
// plan and dependencies. Its programs are drawn from every monotone and
// non-monotone shape of the workload generator over several lattice shapes,
// and the campaign checks that MonotoneClause classifies each clause as its
// shape says.

// sharedMix is the shared campaign's shape mix: every monotone shape at
// weight 3 and every non-monotone one at weight 1, so that about half of the
// programs are monotone.
var sharedMix = workload.Mix{workload.ConstantLevel: 3, workload.LevelVariable: 3, workload.SameLevel: 3, workload.ClassFromBody: 3,
	workload.BottomBody: 3, workload.PiReading: 3, workload.Recursive: 3}.With(workload.NonMonotoneMix)

// SharedCampaignResult summarizes a shared-serving campaign.
type SharedCampaignResult struct {
	Programs, Monotone int
	Probes             int // (probe, clearance, maximal level) triples compared on monotone programs
	// Mix is the shape mix the campaign declares, and Shapes counts the
	// clauses it drew of each shape.
	Mix    workload.Mix
	Shapes map[workload.ClauseShape]int
	// Diverged counts the non-monotone programs whose view at some clearance
	// answered otherwise than the reduction there: what the check guards.
	Diverged      int
	Misclassified []string // a clause MonotoneClause judged against its shape
	Divergences   []string // a monotone program's view that answered otherwise
	// Reductions counts the reductions the campaign prepared through
	// compile.PrepareReduction, as the server's cold build does, and
	// Interpreted those the compiler declined, whose models the interpreter
	// built. WithShape counts the programs with a clause of each shape, and
	// Declined, per shape and by the construct refused
	// (compile.ErrFallback.Construct), those of them declined at some level.
	Reductions, Interpreted int
	WithShape               map[workload.ClauseShape]int
	Declined                map[workload.ClauseShape]map[string]int
}

// ReportDeclines logs, per shape drawn, how many programs the compiler
// declined at some level, by construct, and how many reductions the
// interpreter built.
func (res SharedCampaignResult) ReportDeclines(logf func(string, ...any)) {
	for _, sh := range sortedKeys(res.WithShape) {
		var by []string
		for _, c := range sortedKeys(res.Declined[sh]) {
			by = append(by, fmt.Sprintf("%s %d", c, res.Declined[sh][c]))
		}
		if by == nil {
			by = []string{"none"}
		}
		logf("shape %s: %d programs, declined by the compiler: %s", sh, res.WithShape[sh], strings.Join(by, ", "))
	}
	logf("%d of %d reductions built by the interpreter", res.Interpreted, res.Reductions)
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// RunSharedCampaign generates n programs from sharedMix over chain, diamond,
// product and DAG lattices of 3–7 levels, with facts classified at or below
// their levels; checks MonotoneClause against every clause's shape (the
// facts and the Π clauses the shapes read must pass); and compares, at every
// clearance u and every maximal level s ⪰ u, the view at u of the prepared
// reduction at s with the prepared reduction at u over every probe
// (workload.Probes, also at the bottom levels): answers, match steps,
// QueryDeps, and whether a patch plan exists and which of a write's tuples
// it takes to touch its answers. A monotone program must agree everywhere; a
// non-monotone one is counted as diverged if it does not.
func RunSharedCampaign(seed int64, n int) SharedCampaignResult {
	res := SharedCampaignResult{Programs: n, Mix: sharedMix, Shapes: map[workload.ClauseShape]int{},
		WithShape: map[workload.ClauseShape]int{}, Declined: map[workload.ClauseShape]map[string]int{}}
	lattices := []workload.LatticeShape{workload.ShapeChain, workload.ShapeDiamond, workload.ShapeProduct, workload.ShapeDAG}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		prog := workload.Generate(workload.ProgramConfig{
			Lattice: lattices[i%len(lattices)], Levels: 3 + i%5, Facts: 12, Preds: 3, Rules: 4 + i%2,
			ClassBelow: true, Mix: sharedMix, Seed: seed + int64(i),
		})
		db := mustParse(prog.Source)
		if err := db.CheckAdmissible(); err != nil {
			//vet:allow nopanic -- a generator bug must abort the campaign loudly
			panic(fmt.Sprintf("differential: shared generator emitted a bad program:\n%s\n%v", prog.Source, err))
		}
		poset := prog.Poset
		shapes := map[string]workload.ClauseShape{}
		drawn := map[workload.ClauseShape]bool{}
		for _, c := range prog.Clauses {
			one := mustParse(c.Src)
			shapes[append(one.Sigma, one.Pi...)[0].String()] = c.Shape
			res.Shapes[c.Shape]++
			drawn[c.Shape] = true
		}
		mono := true
		for _, cl := range append(slices.Clone(db.Sigma), db.Pi...) {
			want := true
			if sh, ok := shapes[cl.String()]; ok {
				want = sh.Monotone()
			}
			got := multilog.MonotoneClause(cl, poset)
			mono = mono && got
			if got != want {
				res.Misclassified = append(res.Misclassified, fmt.Sprintf("clause %s classified monotone=%v", cl, got))
			}
		}
		if mono {
			res.Monotone++
		}
		reds := map[lattice.Label]*multilog.Reduction{}
		declined := map[string]bool{}
		for _, u := range poset.Labels() {
			red, err := multilog.Reduce(db, u)
			compiled := false
			if err == nil {
				compiled, err = compile.PrepareReduction(ctx, red, compile.Options{})
			}
			if err != nil {
				//vet:allow nopanic -- generated programs stratify by construction
				panic(fmt.Sprintf("differential: shared program does not reduce at %s: %v\n%s", u, err, prog.Source))
			}
			res.Reductions++
			if !compiled {
				res.Interpreted++
				var fb *compile.ErrFallback
				if _, err := compile.Compile(red.Program); errors.As(err, &fb) {
					declined[fb.Construct] = true
				}
			}
			reds[u] = red
		}
		for sh := range drawn {
			res.WithShape[sh]++
			for c := range declined {
				if res.Declined[sh] == nil {
					res.Declined[sh] = map[string]int{}
				}
				res.Declined[sh][c]++
			}
		}
		probes := workload.Probes(db, poset, poset.Minimal()...)
		diverged := false
		for _, u := range poset.Labels() {
			for _, s := range poset.Maximal() {
				if !poset.Dominates(s, u) {
					continue
				}
				view, err := reds[s].View(u)
				if err != nil {
					//vet:allow nopanic -- s dominates u
					panic(fmt.Sprintf("differential: %v", err))
				}
				for _, p := range probes {
					if mono {
						res.Probes++
					}
					if why := viewDiffers(view, reds[u], p.Query); why != "" {
						diverged = true
						if mono {
							res.Divergences = append(res.Divergences,
								fmt.Sprintf("%s read at %s, probe %s: %s\nprogram:\n%s", s, u, p.Src, why, prog.Source))
						}
					}
				}
			}
		}
		if diverged && !mono {
			res.Diverged++
		}
	}
	return res
}

// viewDiffers says how view, a reduction read at own's clearance, answers q
// otherwise than own, or "".
func viewDiffers(view, own *multilog.Reduction, q multilog.Query) string {
	ctx := context.Background()
	va, vstats, verr := view.QueryPrepared(ctx, q, resource.Limits{})
	oa, ostats, oerr := own.QueryPrepared(ctx, q, resource.Limits{})
	switch {
	case fmt.Sprint(verr) != fmt.Sprint(oerr):
		return fmt.Sprintf("errors %v vs %v", verr, oerr)
	case answerKeys(va) != answerKeys(oa):
		return fmt.Sprintf("answers %s vs %s", answerKeys(va), answerKeys(oa))
	case vstats.Steps != ostats.Steps:
		return fmt.Sprintf("steps %d vs %d", vstats.Steps, ostats.Steps)
	}
	deps := own.QueryDeps(q)
	if got := view.QueryDeps(q); !slices.Equal(got, deps) {
		return fmt.Sprintf("deps %v vs %v", got, deps)
	}
	vp, op := view.PatchPlan(q), own.PatchPlan(q)
	if (vp == nil) != (op == nil) {
		return fmt.Sprintf("patch plan %v vs %v", vp != nil, op != nil)
	}
	if vp == nil {
		return ""
	}
	// A write that added every tuple of the relations q reads at the view's
	// reduction and deleted every one of own's: each plan takes the same
	// tuples to touch q's answers.
	vm, _ := view.Model()
	om, _ := own.Model()
	changed := map[string]datalog.PredDelta{}
	for _, d := range deps {
		changed[d] = datalog.PredDelta{Added: vm.Facts(d), Deleted: om.Facts(d)}
	}
	vAdd, vDel := vp.Touching(changed, nil, nil)
	oAdd, oDel := op.Touching(changed, nil, nil)
	if fmt.Sprint(vAdd, vDel) != fmt.Sprint(oAdd, oDel) {
		return fmt.Sprintf("patch touches %v %v vs %v %v", vAdd, vDel, oAdd, oDel)
	}
	return ""
}

func answerKeys(as []multilog.Answer) string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key
	}
	return "[" + strings.Join(keys, " ") + "]"
}
