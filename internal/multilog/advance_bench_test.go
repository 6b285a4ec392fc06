package multilog_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/workload"
)

// factWriteFixture is the write path's standing state at the benchmark's
// large shape: a 2000-fact / 16-rule / 6-predicate program over a 4-level
// chain, with a prepared reduction warm at every clearance.
type factWriteFixture struct {
	db   *multilog.Database
	reds []*multilog.Reduction
	fact multilog.Clause // a fresh fact at the bottom level: every clearance sees it
}

func newFactWriteFixture(tb testing.TB) *factWriteFixture {
	tb.Helper()
	const levels = 4
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
		Levels: levels, Facts: 2000, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	fx := &factWriteFixture{db: db}
	for l := 0; l < levels; l++ {
		red, err := multilog.Reduce(db, workload.Level(l))
		if err != nil {
			tb.Fatal(err)
		}
		if err := red.Prepare(context.Background(), resource.Limits{}); err != nil {
			tb.Fatal(err)
		}
		fx.reds = append(fx.reds, red)
	}
	delta, err := multilog.Parse(fmt.Sprintf("%s[p0(bench_key: a -%s-> bench_value)].", workload.Level(0), workload.Level(0)))
	if err != nil {
		tb.Fatal(err)
	}
	fx.fact = delta.Sigma[0]
	return fx
}

// write carries every warm reduction across one fact write, as the server's
// update does: clone the database, edit it, advance each clearance.
func (fx *factWriteFixture) write(tb testing.TB, retract bool, advance func(old *multilog.Reduction, next *multilog.Database, added, removed []multilog.Clause) *multilog.Reduction) {
	next := fx.db.Clone()
	var added, removed []multilog.Clause
	if retract {
		removed = []multilog.Clause{next.Sigma[len(next.Sigma)-1]}
		next.Sigma = next.Sigma[:len(next.Sigma)-1]
	} else {
		if err := next.AddClause(fx.fact); err != nil {
			tb.Fatal(err)
		}
		added = []multilog.Clause{fx.fact}
	}
	for i, old := range fx.reds {
		fx.reds[i] = advance(old, next, added, removed)
	}
	fx.db = next
}

// BenchmarkAdvanceFactWrite prices one fact assert plus its retract across
// four warm clearances. advance=delta is the serving path (Advance: the
// write's clauses translated and applied to a copy-on-write clone of each
// engine); advance=full is what it replaces when it cannot apply — Reduce and
// Prepare per clearance — and the reference arm of the bench-smoke allocation
// gate.
func BenchmarkAdvanceFactWrite(b *testing.B) {
	ctx := context.Background()
	arms := []struct {
		name    string
		advance func(old *multilog.Reduction, next *multilog.Database, added, removed []multilog.Clause) *multilog.Reduction
	}{
		{"delta", func(old *multilog.Reduction, next *multilog.Database, added, removed []multilog.Clause) *multilog.Reduction {
			red, rep, err := old.Advance(ctx, next, added, removed, resource.Limits{})
			if err != nil || !rep.Incremental {
				b.Fatalf("advance: incremental=%v reason=%q err=%v", rep.Incremental, rep.Reason, err)
			}
			return red
		}},
		{"full", func(old *multilog.Reduction, next *multilog.Database, _, _ []multilog.Clause) *multilog.Reduction {
			red, err := multilog.Reduce(next, old.User)
			if err == nil {
				err = red.Prepare(ctx, resource.Limits{})
			}
			if err != nil {
				b.Fatal(err)
			}
			return red
		}},
	}
	for _, arm := range arms {
		b.Run("advance="+arm.name, func(b *testing.B) {
			fx := newFactWriteFixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fx.write(b, false, arm.advance)
				fx.write(b, true, arm.advance)
			}
		})
	}
}
