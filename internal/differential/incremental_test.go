package differential

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
)

// TestIncrementalCampaign is the standing gate for the maintenance engine:
// a seeded campaign of generated (program, write sequence) cases where the
// incrementally patched model and its base counts are checked against full
// re-derivation after every single delta. Sharded into parallel
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
	// the rule set, and some of those must be ones the engine has to refuse;
	// and some must take a firing from a tuple of a non-recursive stratum that
	// keeps another — the tuple DRed over-deletes and puts back outside
	// recursion.
	ruleOps, refused, rederived := 0, 0, 0
	for s := 0; s < shards; s++ {
		for _, c := range IncrementalCases(int64(1000+s*programs), programs) {
			st := c.Program
			fresh, err := datalog.NewIncremental(st, nil)
			for _, op := range c.Writes {
				next := withOp(st, op)
				if stratifiable(next) {
					nextFresh, nextErr := datalog.NewIncremental(next, nil)
					if err == nil && nextErr == nil && keepsAnotherFiring(st, fresh, next, nextFresh) {
						rederived++
					}
					st, fresh, err = next, nextFresh, nextErr
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
	t.Logf("rule deltas: %d of %d (%d not stratifiable); %d take a non-recursive tuple one firing of several",
		ruleOps, total.Cases, refused, rederived)
	if 4*ruleOps < total.Cases || refused == 0 {
		t.Errorf("%d of %d deltas change the rule set (%d refused), want ≥ 25%% and some refused", ruleOps, total.Cases, refused)
	}
	if rederived == 0 {
		t.Error("no delta takes a tuple of a non-recursive stratum one firing while it keeps another")
	}
}

// keepsAnotherFiring reports whether the delta from p to next takes a firing
// from a tuple of a non-recursive stratum of next that survives it by another
// firing, with no base assertion to hold it: before and after are fresh
// engines of p and next, whose firings are found by evaluating the rule
// bodies against each model.
func keepsAnotherFiring(p *datalog.Program, before *datalog.Incremental, next *datalog.Program, after *datalog.Incremental) bool {
	now := firings(next, after.Model())
	fired := map[string]bool{}
	for _, h := range now {
		fired[h.Key()] = true
	}
	recursive, counts := recursivePreds(next), after.Counts()
	for k, h := range firings(p, before.Model()) {
		if _, kept := now[k]; !kept && fired[h.Key()] && counts[h.Key()] == 0 && !recursive[h.Pred] {
			return true
		}
	}
	return false
}

// firings maps every firing of p's rules against model — the rule and the
// binding of its variables outside negated literals — to the head it derives.
func firings(p *datalog.Program, model *datalog.Store) map[string]datalog.Atom {
	out := map[string]datalog.Atom{}
	for _, c := range p.Clauses {
		if c.IsFact() {
			continue
		}
		names := c.Head.Vars(nil)
		for _, l := range c.Body {
			if !l.Negated {
				names = l.Atom.Vars(names)
			}
		}
		slices.Sort(names)
		vars := make([]term.Term, 0, len(names))
		for _, n := range slices.Compact(names) {
			vars = append(vars, term.Var(n))
		}
		probe := &datalog.Program{}
		probe.Add(datalog.Rule(datalog.NewAtom("fired", vars...), c.Body...))
		fired, err := datalog.Eval(probe, model)
		if err != nil {
			continue
		}
		for _, f := range fired.Facts("fired") {
			sub := term.Subst{}
			term.UnifyAll(vars, f.Args, sub)
			out[c.String()+" | "+f.String()] = c.Head.Apply(sub)
		}
	}
	return out
}

// recursivePreds reports, per predicate of p, whether its stratum holds a
// predicate that depends on itself.
func recursivePreds(p *datalog.Program) map[string]bool {
	strata, err := datalog.Stratify(p)
	if err != nil {
		return nil
	}
	succ := map[string][]string{}
	for _, e := range datalog.DependencyGraph(p) {
		succ[e.From] = append(succ[e.From], e.To)
	}
	recursive := map[int]bool{}
	for pred := range succ {
		seen := map[string]bool{}
		for stack := slices.Clone(succ[pred]); len(stack) > 0; {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if q == pred {
				recursive[strata[pred]] = true
				break
			}
			if !seen[q] {
				seen[q] = true
				stack = append(stack, succ[q]...)
			}
		}
	}
	out := map[string]bool{}
	for pred, s := range strata {
		out[pred] = recursive[s]
	}
	return out
}

// adoptFunc turns a finished model of p into a maintenance engine.
type adoptFunc func(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error)

func adopt(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error) {
	return datalog.Adopt(p, model, resource.Limits{})
}

// adoptDiverges builds p's model in the compiled engine (the interpreter's
// plain Eval where the compiler declines the program), adopts it and replays
// the write sequence from the adopted engine: model and counts must be those
// of NewIncremental before the first delta and after each, and the adopted
// model — a serving reduction's, in the daemon — must come out untouched.
func adoptDiverges(p *datalog.Program, writes []WriteOp, adoptWith adoptFunc) string {
	fresh, err := datalog.NewIncremental(p, nil)
	if err != nil {
		return "" // nothing to maintain
	}
	model, err := compile.Eval(p, nil)
	if compile.IsFallback(err) {
		model, err = datalog.Eval(p, nil)
	}
	if err != nil {
		return fmt.Sprintf("model build failed: %v", err)
	}
	before := model.String()
	inc, err := adoptWith(p, model)
	if err != nil {
		return fmt.Sprintf("adoption refused: %v", err)
	}
	if msg := replayDiverges(inc, fresh, p, writes); msg != "" {
		return msg
	}
	if model.String() != before {
		return "the adopted model was written to"
	}
	return ""
}

// TestAdoptionCampaign: an engine holds the model, the rules and the fact
// clauses' counts, so one that adopts the compiled engine's model is the
// engine NewIncremental builds — on every program of the incremental campaign
// and of the figure corpus (D1 reduced at every level, with and without the
// Figure 13 filter), model and Counts() alike — and stays it under the
// campaign's delta sequences.
func TestAdoptionCampaign(t *testing.T) {
	programs, shards := 60, 4
	if testing.Short() {
		programs, shards = 16, 2
	}
	start := time.Now()
	var cases []IncrementalCase
	for s := 0; s < shards; s++ {
		cases = append(cases, IncrementalCases(int64(1000+s*programs), programs)...)
	}
	deltas := 0
	for _, c := range cases {
		deltas += len(c.Writes)
	}
	for _, u := range []lattice.Label{lattice.Unclassified, lattice.Classified, lattice.Secret} {
		for _, filter := range []bool{false, true} {
			red, err := multilog.ReduceOpts(multilog.D1(), u, multilog.Options{Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, IncrementalCase{Program: red.Program})
		}
	}
	for i, c := range cases {
		if msg := adoptDiverges(c.Program, c.Writes, adopt); msg != "" {
			t.Errorf("case %d (seed %d): an adopted engine diverged from NewIncremental: %s\nprogram:\n%s\nwrites: %s",
				i, c.Seed, msg, c.Program, renderWrites(c.Writes))
		}
	}
	t.Logf("adoption campaign: %d programs adopted, %d deltas replayed from adopted engines in %v", len(cases), deltas, time.Since(start))
	if !testing.Short() && deltas < 1300 {
		t.Errorf("campaign replayed %d deltas, want ≥ 1300", deltas)
	}
}

// TestAdoptionCampaignCatchesMutations plants the four ways adoption can go
// wrong — a model short of a tuple, a model with a tuple too many, a rule left
// out of the adopted rule set, an adoption that writes to the store it was
// handed — and requires adoptDiverges to report each: Adopt checks nothing but
// that fact clauses are in the model, the comparison with a fresh engine,
// before the first delta and after each, is what tells.
func TestAdoptionCampaignCatchesMutations(t *testing.T) {
	p, err := datalog.Parse(`
		e(a, b). e(b, c). e(c, d).
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
		far(X) :- tc(a, X), not e(a, X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	writes := []WriteOp{{Adds: clausesOf(t, "e(d, a).")}, {Dels: clausesOf(t, "e(b, c).")}}
	if msg := adoptDiverges(p, writes, adopt); msg != "" {
		t.Fatalf("unmutated adoption diverges: %s", msg)
	}
	stray := datalog.NewAtom("far", term.Const("zz")) // feeds no rule: only its own presence gives it away
	mutations := map[string]adoptFunc{
		"dropped tuple": func(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error) {
			short := model.Clone()
			short.Remove(short.Facts("tc")[0])
			return adopt(p, short)
		},
		"extra tuple": func(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error) {
			long := model.Clone()
			if _, err := long.Insert(stray); err != nil {
				return nil, err
			}
			return adopt(p, long)
		},
		"skipped rule": func(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error) {
			// The engine never learns far's rule: model and counts are right
			// until a delta should have moved far.
			return adopt(&datalog.Program{Clauses: p.Clauses[:len(p.Clauses)-1]}, model)
		},
		"source written": func(p *datalog.Program, model *datalog.Store) (*datalog.Incremental, error) {
			inc, err := adopt(p, model)
			if err == nil {
				_, err = model.Insert(stray)
			}
			return inc, err
		},
	}
	for name, mutated := range mutations {
		msg := adoptDiverges(p, writes, mutated)
		if msg == "" {
			t.Errorf("%s: not caught", name)
		}
		first, _, _ := strings.Cut(msg, "\n")
		t.Logf("%s: %s", name, first)
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

// firedBy reports whether some rule of p fires for t against model: what a
// stored derivation count answered, true or not of the least model.
func firedBy(p *datalog.Program, model *datalog.Store, t datalog.Atom) bool {
	for _, h := range firings(p, model) {
		if h.Equal(t) {
			return true
		}
	}
	return false
}

// TestIncrementalCampaignCatchesCountShortcut plants the shortcut the engine
// had while it stored derivation counts — a tuple whose last base assertion
// is retracted stays if a firing derives it, no questions asked of where the
// firing's premises come from — as a fifth mutation, on the campaign's own
// cases: at a delta that is one such retract and nothing else, the mutant
// leaves the model as it was. The campaign catches it wherever full
// re-derivation disagrees, which takes a tuple that supports itself through a
// cycle; the write generator must reach some.
func TestIncrementalCampaignCatchesCountShortcut(t *testing.T) {
	programs, shards := 60, 4
	taken, caught := 0, 0
	for s := 0; s < shards; s++ {
		for _, c := range IncrementalCases(int64(1000+s*programs), programs) {
			full := c.Program
			fresh, err := datalog.NewIncremental(full, nil)
			if err != nil {
				continue
			}
			for _, op := range c.Writes {
				next := withOp(full, op)
				nextFresh, err := datalog.NewIncremental(next, nil)
				if err != nil {
					continue // refused: the engine stays what it was
				}
				if len(op.Adds) == 0 && len(op.Dels) == 1 && op.Dels[0].IsFact() {
					d := op.Dels[0].Head
					if fresh.Counts()[d.Key()] == 1 && firedBy(full, fresh.Model(), d) {
						taken++
						if nextFresh.Model().String() != fresh.Model().String() {
							caught++
							t.Logf("seed %d: -%s leaves a model the shortcut keeps", c.Seed, d)
						}
					}
				}
				full, fresh = next, nextFresh
			}
		}
	}
	t.Logf("the shortcut decides %d lone retracts of the campaign, %d of them wrongly", taken, caught)
	if caught == 0 {
		t.Errorf("the campaign never retracts a base fact that supports itself through a cycle (%d shortcut retracts, all sound)", taken)
	}
}
