package server

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/resource"
	"repro/internal/workload"
)

// factWriteLevels is the benchmark's chain: four clearances, all warm.
const factWriteLevels = 4

// factWriteFixture is the write path at one database size: a 16-rule /
// 6-predicate program over a 4-level chain with every clearance warm, fed the
// fact writes of the benchmark's write_mix workload. The program is
// monotone, so one compiled reduction, at the top, serves every clearance;
// per-clearance, two clauses that lint passes make it non-monotone (z's
// class comes from a p-goal), and each clearance has its own.
type factWriteFixture struct {
	p      *preparedProgram
	writes int
}

// perClearanceClauses are the fixture's non-monotone clauses.
const perClearanceClauses = "zz(none, l0, none).\nl3[z(K: a -C-> V)] :- zz(K, C, V).\n"

func newFactWriteFixture(tb testing.TB, facts int, perClearance bool) *factWriteFixture {
	tb.Helper()
	src := workload.ProgramSource(workload.ProgramConfig{
		Levels: factWriteLevels, Facts: facts, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1})
	if perClearance {
		src += perClearanceClauses
	}
	p, _, err := newPrepared("bench", src, 1, resource.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	for l := 0; l < factWriteLevels; l++ {
		if _, err := p.current().reductionAt(context.Background(), workload.Level(l), resource.Limits{}); err != nil {
			tb.Fatal(err)
		}
	}
	fx := &factWriteFixture{p: p}
	// The first write adopts every compiled model; the benchmark's set-up
	// plays two writes for the same reason.
	fx.write(tb)
	fx.write(tb)
	return fx
}

// write commits the stream's next write, as write_mix's client 0 makes them:
// it alternately asserts and retracts a fact only it names, at the level of
// the session it writes through, round-robin over the predicates and the
// twelve sessions (clearance × belief mode).
func (fx *factWriteFixture) write(tb testing.TB) {
	pair := fx.writes / 2
	lvl := workload.Level(pair % 12 % factWriteLevels)
	src := fmt.Sprintf("%s[p%d(w0_%d: a -%s-> wv0)].", lvl, pair%6, pair, lvl)
	if _, _, _, err := fx.p.update(context.Background(), src, lvl, fx.writes%2 == 1, nil); err != nil {
		tb.Fatal(err)
	}
	fx.writes++
}

// BenchmarkServerFactWrite prices one committed fact write through
// preparedProgram.update — parse, authorize, the next database version, lint,
// snapshot, an advance per warm serving level — at four database sizes,
// without the WAL and the HTTP round trip, with one reduction serving every
// clearance (serving=shared) and with one per clearance
// (serving=per-clearance). The 32000-fact fixtures take ≈ 25 s to build.
func BenchmarkServerFactWrite(b *testing.B) {
	for _, facts := range []int{200, 2000, 8000, 32000} {
		for _, serving := range []string{"shared", "per-clearance"} {
			b.Run(fmt.Sprintf("facts=%d/serving=%s", facts, serving), func(b *testing.B) {
				fx := newFactWriteFixture(b, facts, serving == "per-clearance")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fx.write(b)
				}
			})
		}
	}
}

// TestFactWriteAllocsFlatInDatabaseSize is the write path's deterministic
// allocation gate: a fact write allocates for what it changes, so ten times
// the facts may cost at most a quarter more allocations, and at most a
// quarter more bytes. A write that lints or copies in proportion to the
// database fails it: 2.6x the allocations when every touched relation was
// copied whole and the whole program re-linted, 2.4x the bytes when every
// write copied Σ (Database.Clone) instead of deriving a version.
func TestFactWriteAllocsFlatInDatabaseSize(t *testing.T) {
	const writes = 24
	type cost struct{ allocs, bytes float64 }
	perWrite := func(facts int) cost {
		fx := newFactWriteFixture(t, facts, false)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
		fx.write(t)                                     // warm-up, as testing.AllocsPerRun
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			fx.write(t)
		}
		runtime.ReadMemStats(&after)
		return cost{float64(after.Mallocs-before.Mallocs) / writes, float64(after.TotalAlloc-before.TotalAlloc) / writes}
	}
	small, large := perWrite(200), perWrite(2000)
	t.Logf("allocations per fact write: %.0f at 200 facts, %.0f at 2000", small.allocs, large.allocs)
	t.Logf("bytes per fact write: %.0f at 200 facts, %.0f at 2000 (%.2fx)", small.bytes, large.bytes, large.bytes/small.bytes)
	if large.allocs > 1.25*small.allocs {
		t.Errorf("a fact write allocates %.0f times at 2000 facts, %.0f at 200: %.2fx, want at most 1.25x",
			large.allocs, small.allocs, large.allocs/small.allocs)
	}
	if large.bytes > 1.25*small.bytes {
		t.Errorf("a fact write allocates %.0f bytes at 2000 facts, %.0f at 200: %.2fx, want at most 1.25x",
			large.bytes, small.bytes, large.bytes/small.bytes)
	}
}

// BenchmarkServerRuleWrite prices one committed Π rule write through
// preparedProgram.update — rule_churn's rule, asserted and retracted in turn
// through a top-clearance session — at three database sizes, over the fact
// write benchmark's fixture. The write lints Λ, Π and the queries; the
// retract asks the version's index whether a Σ body reads the predicate it
// undefines. Neither lints or walks Σ.
func BenchmarkServerRuleWrite(b *testing.B) {
	top := workload.Level(factWriteLevels - 1)
	for _, facts := range []int{200, 2000, 8000} {
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			fx := newFactWriteFixture(b, facts, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := fx.p.update(context.Background(), "churn0(X) :- level(X).", top, i%2 == 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
