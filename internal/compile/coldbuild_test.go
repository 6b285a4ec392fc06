package compile

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/multilog"
	"repro/internal/workload"
)

// coldBuildReduction reduces the benchmark-like program of the given fact
// count — 4 levels, 6 predicates, 16 belief rules, poly 0.3 — at the top
// level: what a server's first query at the top clearance builds.
func coldBuildReduction(tb testing.TB, facts int) *multilog.Reduction {
	tb.Helper()
	db, err := multilog.Parse(workload.ProgramSource(workload.ProgramConfig{
		Levels: 4, Facts: facts, Rules: 16, Preds: 6, Poly: 0.3, Seed: 1}))
	if err != nil {
		tb.Fatal(err)
	}
	red, err := multilog.Reduce(db, workload.Level(3))
	if err != nil {
		tb.Fatal(err)
	}
	return red
}

// fixpoint compiles red's program and runs it to its fixpoint, returning
// the run before its hand-over.
func fixpoint(tb testing.TB, red *multilog.Reduction) *runtime {
	tb.Helper()
	pl, err := Compile(red.Program)
	if err != nil {
		tb.Fatal(err)
	}
	rt := pl.newRuntime(context.Background(), Options{})
	if err := rt.run(red.Program, nil); err != nil {
		tb.Fatal(err)
	}
	return rt
}

// handOverTo ends rt's run and installs its model in red: the cold build's
// last phase, from the fixpoint to a prepared reduction.
func handOverTo(tb testing.TB, rt *runtime, red *multilog.Reduction) {
	model, _, err := rt.handOver(nil)
	if err != nil {
		tb.Fatal(err)
	}
	red.InstallPrepared(model)
}

// BenchmarkColdBuild prices a cold build — PrepareReduction's compiled path
// — at 200, 2,000 and 8,000 facts, phase by phase: plan (Compile), fixpoint
// (the semi-naive run) and handover (from the fixpoint to the model
// installed in the reduction). B/op, allocs/op and gcs/op (collections
// that ran) are the three phases'.
func BenchmarkColdBuild(b *testing.B) {
	for _, facts := range []int{200, 2000, 8000} {
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			b.ReportAllocs()
			var plan, fix, hand time.Duration
			var ms goruntime.MemStats
			gcs := uint32(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				red := coldBuildReduction(b, facts)
				goruntime.ReadMemStats(&ms)
				gcs -= ms.NumGC
				b.StartTimer()
				t0 := time.Now()
				pl, err := Compile(red.Program)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				rt := pl.newRuntime(context.Background(), Options{})
				if err := rt.run(red.Program, nil); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				handOverTo(b, rt, red)
				t3 := time.Now()
				plan, fix, hand = plan+t1.Sub(t0), fix+t2.Sub(t1), hand+t3.Sub(t2)
				b.StopTimer()
				goruntime.ReadMemStats(&ms)
				gcs += ms.NumGC
				b.StartTimer()
			}
			b.ReportMetric(float64(gcs)/float64(b.N), "gcs/op")
			b.ReportMetric(float64(plan.Nanoseconds())/float64(b.N), "plan-ns")
			b.ReportMetric(float64(fix.Nanoseconds())/float64(b.N), "fixpoint-ns")
			b.ReportMetric(float64(hand.Nanoseconds())/float64(b.N), "handover-ns")
		})
	}
}

// TestColdBuildHandoverAllocsFlatInTuples: a cold build's hand-over — from
// the compiled engine's fixpoint to the model installed in the reduction —
// allocates at 8,000 facts at most 1.25x what it does at 200. The engine
// computes in the store it returns, so nothing is converted per tuple;
// rebuilding every tuple as atoms with key strings and argument indexes
// allocates with the model's size.
func TestColdBuildHandoverAllocsFlatInTuples(t *testing.T) {
	allocs := func(facts int) (float64, int) {
		red := coldBuildReduction(t, facts)
		rt := fixpoint(t, red)
		n := testing.AllocsPerRun(5, func() { handOverTo(t, rt, red) })
		return n, rt.model.Len()
	}
	small, smallN := allocs(200)
	large, largeN := allocs(8000)
	t.Logf("allocations per hand-over: %.0f at %d tuples (200 facts), %.0f at %d tuples (8000 facts)",
		small, smallN, large, largeN)
	if large > 1.25*small {
		t.Errorf("a hand-over allocates %.0f at 8000 facts, %.0f at 200: more than 1.25x", large, small)
	}
}

// TestColdBuildFixpointAllocsPerTuple: between 200 and 8,000 facts the
// compiled fixpoint's allocations grow by well under one per tuple the
// larger model adds. A job inserts each head row into its relation as it
// derives it; staging the rows of every job in a buffer of its own, deduped
// by a set of packed keys, and merging them after the round costs more than
// one allocation per derived tuple.
func TestColdBuildFixpointAllocsPerTuple(t *testing.T) {
	allocs := func(facts int) (float64, int) {
		red := coldBuildReduction(t, facts)
		pl, err := Compile(red.Program)
		if err != nil {
			t.Fatal(err)
		}
		var tuples int
		n := testing.AllocsPerRun(2, func() {
			rt := pl.newRuntime(context.Background(), Options{})
			if err := rt.run(red.Program, nil); err != nil {
				t.Fatal(err)
			}
			tuples = rt.model.Len()
		})
		return n, tuples
	}
	small, smallN := allocs(200)
	large, largeN := allocs(8000)
	per := (large - small) / float64(largeN-smallN)
	t.Logf("allocations per fixpoint: %.0f at %d tuples (200 facts), %.0f at %d tuples (8000 facts): %.2f per added tuple",
		small, smallN, large, largeN, per)
	if per > 0.4 {
		t.Errorf("the fixpoint allocates %.2f per added tuple between 200 and 8000 facts: more than 0.4", per)
	}
}
