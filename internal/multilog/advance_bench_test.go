package multilog_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// writeFixture is the write path's standing state at the benchmark's shapes:
// a 6-predicate program of the given fact and belief-rule counts (2000 facts
// is the large shape; 200 facts and 16 rules rule_churn's) over a 4-level
// chain, with a prepared reduction warm at every clearance, and the one
// clause the benchmark writes.
type writeFixture struct {
	db     *multilog.Database
	reds   []*multilog.Reduction
	clause multilog.Clause
}

// factWrite is a fresh fact at the bottom level: every clearance sees it.
var factWrite = fmt.Sprintf("%s[p0(bench_key: a -%s-> bench_value)].", workload.Level(0), workload.Level(0))

const fixtureLevels = 4

func newWriteFixture(tb testing.TB, facts, rules int, clause string) *writeFixture {
	tb.Helper()
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
		Levels: fixtureLevels, Facts: facts, Rules: rules, Preds: 6, Poly: 0.3, Seed: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	fx := &writeFixture{db: db}
	fx.warm(tb, func(red *multilog.Reduction) error { return red.Prepare(context.Background(), resource.Limits{}) })
	delta, err := multilog.Parse(clause)
	if err != nil {
		tb.Fatal(err)
	}
	fx.clause = append(delta.Sigma, delta.Pi...)[0]
	return fx
}

// warm replaces the fixture's reductions by fresh ones of its database, one
// per clearance, each prepared by prepare.
func (fx *writeFixture) warm(tb testing.TB, prepare func(*multilog.Reduction) error) {
	tb.Helper()
	fx.reds = fx.reds[:0]
	for l := 0; l < fixtureLevels; l++ {
		red, err := multilog.Reduce(fx.db, workload.Level(l))
		if err == nil {
			err = prepare(red)
		}
		if err != nil {
			tb.Fatal(err)
		}
		fx.reds = append(fx.reds, red)
	}
}

// advanceFunc carries one warm reduction across a write.
type advanceFunc func(old *multilog.Reduction, next *multilog.Database, added, removed []multilog.Clause) *multilog.Reduction

// write carries every warm reduction across one write of the fixture's
// clause, as the server's update does: clone the database, edit it, advance
// each clearance.
func (fx *writeFixture) write(tb testing.TB, retract bool, advance advanceFunc) {
	next := fx.db.Clone()
	var added, removed []multilog.Clause
	if retract {
		part := &next.Pi
		if fx.clause.Head.Kind == multilog.GoalM {
			part = &next.Sigma
		}
		removed = []multilog.Clause{(*part)[len(*part)-1]}
		*part = (*part)[:len(*part)-1]
	} else {
		if err := next.AddClause(fx.clause); err != nil {
			tb.Fatal(err)
		}
		added = []multilog.Clause{fx.clause}
	}
	for i, old := range fx.reds {
		fx.reds[i] = advance(old, next, added, removed)
	}
	fx.db = next
}

// advanceArms are the two ways across a write: advance=delta is the serving
// path (Advance: the write's clauses translated and applied to a
// copy-on-write clone of each engine); advance=full is the cold-build
// reference — Reduce and an interpreted Prepare per clearance, which no write
// runs any more — and the reference arm of the bench-smoke allocation gates.
func advanceArms(tb testing.TB) []struct {
	name    string
	advance advanceFunc
} {
	ctx := context.Background()
	return []struct {
		name    string
		advance advanceFunc
	}{
		{"delta", func(old *multilog.Reduction, next *multilog.Database, added, removed []multilog.Clause) *multilog.Reduction {
			red, rep, err := old.Advance(ctx, next, added, removed, resource.Limits{})
			if err != nil || rep.Reason != "" {
				tb.Fatalf("advance: reason=%q err=%v", rep.Reason, err)
			}
			return red
		}},
		{"full", func(old *multilog.Reduction, next *multilog.Database, _, _ []multilog.Clause) *multilog.Reduction {
			red, err := multilog.Reduce(next, old.User)
			if err == nil {
				err = red.Prepare(ctx, resource.Limits{})
			}
			if err != nil {
				tb.Fatal(err)
			}
			return red
		}},
	}
}

// BenchmarkAdvanceFactWrite prices one fact assert plus its retract across
// four warm clearances; advance=adopt, the same pair as the first writes
// after a cold build — every clearance holding the compiled engine's model,
// which the assert adopts (a clone and its fact clauses counted in, each)
// before its delta.
func BenchmarkAdvanceFactWrite(b *testing.B) {
	arms := advanceArms(b)
	for _, arm := range arms {
		b.Run("advance="+arm.name, func(b *testing.B) {
			fx := newWriteFixture(b, 2000, 16, factWrite)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.write(b, false, arm.advance)
				fx.write(b, true, arm.advance)
			}
		})
	}
	b.Run("advance=adopt", func(b *testing.B) {
		fx := newWriteFixture(b, 2000, 16, factWrite)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fx.warm(b, func(red *multilog.Reduction) error {
				_, err := compile.PrepareReduction(context.Background(), red, compile.Options{})
				return err
			})
			b.StartTimer()
			fx.write(b, false, arms[0].advance)
			fx.write(b, true, arms[0].advance)
		}
	})
}

// BenchmarkAdvanceRuleWrite prices one rule assert plus its retract across
// four warm clearances: the Π rule the benchmark's rule_churn workload
// writes — four tuples whatever the fact count or the rule count, hence the
// three sizes — and a Σ belief rule over a sixth of the bottom level's facts,
// whose head predicate is new to Σ. The rule set is edited, not rebuilt: the
// Π rule is appended to a delta over each clearance's shared rule set and
// tombstoned again, lifting only the strata its edges raise, so it costs
// about the same at 16 belief rules (767 translated rules at l3) as at 160
// (5,807) — ≈ 1.3k allocations a pair, against 8.1k and 46.7k when every
// write re-stratified and re-indexed all of them. A rebuild is a fold's, once
// per 2√n changes of a clearance's delta; at 20 iterations the l3 deltas
// have not folded yet (TestRuleWriteAllocsFlatInRuleCount runs past folds).
func BenchmarkAdvanceRuleWrite(b *testing.B) {
	for _, c := range []struct {
		name, clause string
		facts, rules int
	}{
		{"rule=pi/facts=200", "churn0(X) :- level(X).", 200, 16},
		{"rule=pi/facts=2000", "churn0(X) :- level(X).", 2000, 16},
		{"rule=pi/rules=160", "churn0(X) :- level(X).", 200, 160},
		{"rule=sigma/facts=2000", "l3[r(K: d -l3-> x)] :- l0[p0(K: a -C-> V)] << cau.", 2000, 16},
	} {
		for _, arm := range advanceArms(b) {
			b.Run(c.name+"/advance="+arm.name, func(b *testing.B) {
				fx := newWriteFixture(b, c.facts, c.rules, c.clause)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.write(b, false, arm.advance)
					fx.write(b, true, arm.advance)
				}
			})
		}
	}
}

// TestRuleWriteAllocsFlatInRuleCount holds a rule write's cost to what the
// rule touches: rule_churn's Π rule asserted and retracted across four warm
// clearances allocates at 160 belief rules (5,807 translated rules at l3) at
// most 1.25x what it does at 16 (767). A write that rebuilds each clearance's
// rule set — stratification and indexes — allocates in proportion to the
// rules; an edit over a shared rule set allocates for the rule it adds, the
// strata it lifts and a copy of the delta, with a fold every 2√n changes.
// The pairs run long enough to cross folds at both sizes.
func TestRuleWriteAllocsFlatInRuleCount(t *testing.T) {
	const pairs = 200
	advance := advanceArms(t)[0].advance
	type cost struct{ allocs, bytes float64 }
	perPair := func(rules int) cost {
		fx := newWriteFixture(t, 200, rules, "churn0(X) :- level(X).")
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
		fx.write(t, false, advance)                     // warm-up, as testing.AllocsPerRun
		fx.write(t, true, advance)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			fx.write(t, false, advance)
			fx.write(t, true, advance)
		}
		runtime.ReadMemStats(&after)
		return cost{float64(after.Mallocs-before.Mallocs) / pairs, float64(after.TotalAlloc-before.TotalAlloc) / pairs}
	}
	small, large := perPair(16), perPair(160)
	t.Logf("allocations per rule assert+retract: %.0f at 16 belief rules, %.0f at 160 (%.2fx)", small.allocs, large.allocs, large.allocs/small.allocs)
	t.Logf("bytes per rule assert+retract: %.0f at 16 belief rules, %.0f at 160 (%.2fx)", small.bytes, large.bytes, large.bytes/small.bytes)
	if large.allocs > 1.25*small.allocs {
		t.Errorf("a rule write allocates %.0f times at 160 belief rules, %.0f at 16: %.2fx, want at most 1.25x",
			large.allocs, small.allocs, large.allocs/small.allocs)
	}
}
