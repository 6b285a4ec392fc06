package differential

import (
	"testing"
	"time"

	"repro/internal/datalog"
)

// TestIncrementalCampaign is the standing gate for the maintenance engine:
// a seeded campaign of generated (program, write sequence) cases where the
// incrementally patched model and its derivation counts are checked against
// full re-derivation after every single delta. Sharded into parallel
// subtests so the race-enabled CI tier exercises concurrent engine
// instances.
func TestIncrementalCampaign(t *testing.T) {
	programs, shards := 60, 4
	if testing.Short() {
		programs, shards = 16, 2
	}
	start := time.Now()
	results := make([]CampaignResult, shards)
	t.Run("shards", func(t *testing.T) {
		for s := 0; s < shards; s++ {
			s := s
			t.Run("", func(t *testing.T) {
				t.Parallel()
				results[s] = RunIncrementalCampaign(int64(1000+s*programs), programs)
			})
		}
	})
	total := CampaignResult{}
	for _, res := range results {
		total.Programs += res.Programs
		total.Cases += res.Cases
		total.Disagreements = append(total.Disagreements, res.Disagreements...)
	}
	for _, d := range total.Disagreements {
		t.Errorf("incremental maintenance diverged from full re-derivation:\n%s", d.Report())
	}
	t.Logf("incremental campaign: %d programs, %d maintained deltas in %v",
		total.Programs, total.Cases, time.Since(start))
	if !testing.Short() && total.Cases < 1300 {
		t.Errorf("campaign covered %d delta cases, want ≥ 1300", total.Cases)
	}
	// What the generator drew, recounted: a quarter of the deltas must change
	// the rule set, and some of those must be ones the engine has to refuse.
	ruleOps, refused := 0, 0
	for s := 0; s < shards; s++ {
		for _, c := range IncrementalCases(int64(1000+s*programs), programs) {
			st := c.Program
			for _, op := range c.Writes {
				next := withOp(st, op)
				if stratifiable(next) {
					st = next
				}
				if op.HasRules() {
					ruleOps++
					if st != next {
						refused++
					}
				}
			}
		}
	}
	t.Logf("rule deltas: %d of %d (%d not stratifiable)", ruleOps, total.Cases, refused)
	if 4*ruleOps < total.Cases || refused == 0 {
		t.Errorf("%d of %d deltas change the rule set (%d refused), want ≥ 25%% and some refused", ruleOps, total.Cases, refused)
	}
}

// The write-sequence generator is seeded: identical seeds must produce
// identical cases, so a counterexample's seed reproduces it.
func TestIncrementalCasesDeterministic(t *testing.T) {
	a := IncrementalCases(7, 10)
	b := IncrementalCases(7, 10)
	if len(a) != len(b) {
		t.Fatalf("case counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Program.String() != b[i].Program.String() ||
			renderWrites(a[i].Writes) != renderWrites(b[i].Writes) {
			t.Fatalf("case %d differs between identically-seeded runs", i)
		}
	}
}

// ddmin over write sequences must land on a 1-minimal failing subsequence.
func TestShrinkWriteSequence(t *testing.T) {
	cases := IncrementalCases(3, 1)
	writes := cases[0].Writes
	if len(writes) < 3 {
		t.Fatalf("generator produced only %d writes", len(writes))
	}
	// Synthetic failure: the sequence "fails" iff it retains both the first
	// and the last op. ddmin must strip everything else.
	first, last := writes[0].String(), writes[len(writes)-1].String()
	if first == last {
		t.Skip("degenerate sequence: endpoints render identically")
	}
	fails := func(ws []WriteOp) bool {
		var hasFirst, hasLast bool
		for _, w := range ws {
			if w.String() == first {
				hasFirst = true
			}
			if w.String() == last {
				hasLast = true
			}
		}
		return hasFirst && hasLast
	}
	minimal := ddmin(writes, fails)
	if len(minimal) != 2 || minimal[0].String() != first || minimal[1].String() != last {
		t.Fatalf("ddmin kept %d ops (%s), want exactly the two triggering ops", len(minimal), renderWrites(minimal))
	}
}

// A planted engine-level divergence must come back shrunk: CheckIncremental
// on a case whose writes include a delta the engine rejects (an error is a
// divergence) reports a minimal counterexample.
func TestCheckIncrementalReportsAndShrinks(t *testing.T) {
	src := `
		e(a, b). e(b, c).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
	`
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	goodCase := IncrementalCase{Seed: 1, Program: p, Writes: []WriteOp{
		{Adds: clausesOf(t, "e(c, d).")},
		{Dels: clausesOf(t, "e(a, b).")},
		{Dels: clausesOf(t, "tc(X, Z) :- e(X, Y), tc(Y, Z)."), Adds: clausesOf(t, "e(a, b). far(X) :- tc(a, X), not e(a, X).")},
		{Adds: clausesOf(t, "e(X, Y) :- far(X), far(Y).")}, // not stratifiable: refused, engine as before
		{Adds: clausesOf(t, "tc(X, Z) :- tc(X, Y), tc(Y, Z).")},
	}}
	if d := CheckIncremental(goodCase); d != nil {
		t.Fatalf("agreeing case reported a divergence:\n%s", d.Report())
	}
}

func clausesOf(t *testing.T, src string) []datalog.Clause {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil || len(p.Clauses) == 0 {
		t.Fatalf("bad clause source %q: %v", src, err)
	}
	return p.Clauses
}
