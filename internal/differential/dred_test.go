package differential

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datalog"
	"repro/internal/multilog"
	"repro/internal/term"
	"repro/internal/workload"
)

// dredCount totals one delta's DRed work over a set of predicates.
type dredCount struct{ overDeleted, reDerived, netDeleted int }

// dredCounts adds res, a delta inc applied, to tot: [0] over the predicates
// that do not reach themselves through the bodies of inc's rules, [1] over
// those that do. A predicate no rule defines is not recursive.
func dredCounts(inc *datalog.Incremental, res *datalog.DeltaResult, tot *[2]dredCount) {
	uses := map[string][]string{}
	for _, c := range inc.Rules() {
		for _, l := range c.Body {
			uses[c.Head.Pred] = append(uses[c.Head.Pred], l.Atom.Pred)
		}
	}
	of := func(p string) *dredCount {
		seen := map[string]bool{}
		for stack := slices.Clone(uses[p]); len(stack) > 0; {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if q == p {
				return &tot[1]
			}
			if !seen[q] {
				seen[q] = true
				stack = append(stack, uses[q]...)
			}
		}
		return &tot[0]
	}
	for p, n := range res.OverDeleted {
		of(p).overDeleted += n
	}
	for p, n := range res.ReDerived {
		of(p).reDerived += n
	}
	for p, pd := range res.Changed {
		of(p).netDeleted += len(pd.Deleted)
	}
}

// TestDRedCounts measures what DRed's deletion phases do, split by whether
// the predicate is recursive: tuples over-deleted, re-derived and deleted
// net (DeltaResult.OverDeleted, ReDerived, Changed), over the incremental campaign's
// write sequences and over write_mix's fact writes — a fact at each level in
// turn asserted and retracted again — on the benchmark's program shape,
// reduced at the top of its chain. It logs the totals, and fails where the
// accounting breaks: a tuple re-derived that was never over-deleted, or no
// deletion work at all.
func TestDRedCounts(t *testing.T) {
	ctx := context.Background()
	var campaign, writeMix [2]dredCount // not recursive, recursive
	apply := func(inc *datalog.Incremental, op WriteOp, tot *[2]dredCount) bool {
		res, err := inc.ApplyClauses(ctx, op.Adds, op.Dels)
		if err != nil {
			return false // refused: an unstratifiable rule set, which leaves the engine as it was
		}
		dredCounts(inc, res, tot)
		return true
	}
	deltas := 0
	for shard := int64(0); shard < 4; shard++ { // TestIncrementalCampaign's seeds
		for _, c := range IncrementalCases(1000+60*shard, 60) {
			inc, err := datalog.NewIncremental(c.Program, nil)
			if err != nil {
				continue
			}
			for _, op := range c.Writes {
				if apply(inc, op, &campaign) {
					deltas++
				}
			}
		}
	}

	const levels = 4
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
		Levels: levels, Facts: 2000, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	red, err := multilog.Reduce(db, workload.Level(levels-1))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := datalog.NewIncremental(red.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 48
	for pair := 0; pair < pairs; pair++ {
		lvl := workload.Level(pair % 12 % levels)
		fact := datalog.Clause{Head: datalog.NewAtom(fmt.Sprintf("mlrel_p%d_%s", pair%6, lvl),
			term.Const(fmt.Sprintf("w0_%d", pair)), term.Const("a"), term.Const("wv0"), term.Const(string(lvl)))}
		for _, op := range []WriteOp{{Adds: []datalog.Clause{fact}}, {Dels: []datalog.Clause{fact}}} {
			if !apply(inc, op, &writeMix) {
				t.Fatalf("write_mix write %s refused", op)
			}
		}
	}

	for _, m := range []struct {
		name   string
		writes int
		tot    [2]dredCount
	}{{"incremental campaign", deltas, campaign}, {"write_mix at l3", 2 * pairs, writeMix}} {
		for i, kind := range []string{"non-recursive", "recursive"} {
			c := m.tot[i]
			t.Logf("%s, %d deltas, %s: %d over-deleted, %d re-derived, %d deleted net (over-deleted/net %.2f)",
				m.name, m.writes, kind, c.overDeleted, c.reDerived, c.netDeleted, float64(c.overDeleted)/float64(max(c.netDeleted, 1)))
			if c.reDerived > c.overDeleted {
				t.Errorf("%s, %s: %d re-derived of %d over-deleted", m.name, kind, c.reDerived, c.overDeleted)
			}
		}
		if m.tot[0].overDeleted == 0 {
			t.Errorf("%s: no tuple over-deleted", m.name)
		}
	}
}
