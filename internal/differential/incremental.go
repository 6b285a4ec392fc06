package differential

// Differential testing of the incremental maintenance engine
// (datalog.Incremental). Two layers:
//
//   - incrementalOracle registers the engine's from-scratch construction in
//     the standard Datalog oracle set: NewIncremental's initial model must
//     agree with every other evaluation strategy on every query.
//
//   - The write-sequence campaign exercises what no stateless oracle can:
//     the delta core. Each case is a seeded workload program plus a
//     randomized sequence of clause deltas — fact asserts and retracts, and
//     rule asserts and retracts that move strata, turn recursion on and off
//     and are sometimes not stratifiable; after every delta the maintained
//     model and its base counts are compared against a full
//     re-derivation of the patched program. Divergences are shrunk twice —
//     ddmin over the write sequence, then clause/body minimization of the
//     program — before being reported.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"

	"repro/internal/compile"
	"repro/internal/datalog"
	"repro/internal/term"
	"repro/internal/workload"
)

// incrementalOracle answers through the incremental engine's initial
// fixpoint (no deltas applied).
type incrementalOracle struct{ models models }

func (incrementalOracle) Name() string { return "incremental" }

func (o incrementalOracle) Answer(p *datalog.Program, goal datalog.Atom) (Result, error) {
	model, err := o.models.at(p, func() (*datalog.Store, error) {
		inc, err := datalog.NewIncremental(p, nil)
		if err != nil {
			return nil, unsupported(err)
		}
		return inc.Model(), nil
	})
	if err != nil {
		return Result{}, err
	}
	return substResult(datalog.QueryStore(model, goal)), nil
}

// WriteOp is one maintenance delta, facts and rules mixed. Deletions apply
// before additions, matching the delta core's contract.
type WriteOp struct {
	Adds []datalog.Clause
	Dels []datalog.Clause
}

// HasRules reports whether the delta changes the rule set.
func (op WriteOp) HasRules() bool {
	isRule := func(c datalog.Clause) bool { return !c.IsFact() }
	return slices.ContainsFunc(op.Adds, isRule) || slices.ContainsFunc(op.Dels, isRule)
}

func (op WriteOp) String() string {
	parts := make([]string, 0, len(op.Adds)+len(op.Dels))
	for _, d := range op.Dels {
		parts = append(parts, "-"+d.String())
	}
	for _, a := range op.Adds {
		parts = append(parts, "+"+a.String())
	}
	return strings.Join(parts, " ")
}

// IncrementalCase is one campaign unit: a program and a write sequence.
type IncrementalCase struct {
	Seed    int64
	Family  workload.DatalogFamily
	Program *datalog.Program
	Writes  []WriteOp
}

func inode(i int) term.Term { return term.Const(fmt.Sprintf("n%d", i)) }

// randomEDBAtom draws a base fact from the family's EDB vocabulary, over
// the same constant pool the workload generator uses, so writes hit both
// existing and fresh tuples.
func randomEDBAtom(f workload.DatalogFamily, r *rand.Rand, size int) datalog.Atom {
	n := func() term.Term { return inode(r.Intn(size + 2)) } // +2 reaches beyond the seeded chain
	switch f {
	case workload.FamChainTC:
		return datalog.NewAtom("e", n(), n())
	case workload.FamGraphTC:
		if r.Intn(4) == 0 {
			return datalog.NewAtom("node", n())
		}
		return datalog.NewAtom("e", n(), n())
	case workload.FamSameGen:
		if r.Intn(4) == 0 {
			return datalog.NewAtom("person", n())
		}
		return datalog.NewAtom("par", n(), n())
	case workload.FamNegation:
		switch r.Intn(6) {
		case 0:
			return datalog.NewAtom("node", n())
		case 1:
			return datalog.NewAtom("start", n())
		default:
			return datalog.NewAtom("e", n(), n())
		}
	default: // FamBuiltin
		return datalog.NewAtom("p", n())
	}
}

// randomDerivedAtom draws a base fact on a predicate some rule of p heads,
// when there is one: a tuple both asserted and — where the rules agree —
// derived, inside a recursive stratum when the predicate is (a family's own
// tc, a d under ruleCandidates' copy_d pair), so that retracting it asks the
// engine whether the rules still derive it, its own consequences aside.
func randomDerivedAtom(p *datalog.Program, r *rand.Rand, size int) (datalog.Atom, bool) {
	heads := ruleHeads(p)
	if len(heads) == 0 {
		return datalog.Atom{}, false
	}
	h := heads[r.Intn(len(heads))]
	args := make([]term.Term, len(h.Args))
	for i := range args {
		args[i] = inode(r.Intn(size + 2))
	}
	return datalog.NewAtom(h.Pred, args...), true
}

// ruleHeads returns one rule head per predicate p's rules define, in clause
// order.
func ruleHeads(p *datalog.Program) []datalog.Atom {
	var heads []datalog.Atom
	for _, c := range p.Clauses {
		if !c.IsFact() && !defines(heads, c.Head.Pred) {
			heads = append(heads, c.Head)
		}
	}
	return heads
}

func defines(heads []datalog.Atom, pred string) bool {
	return slices.ContainsFunc(heads, func(h datalog.Atom) bool { return h.Pred == pred })
}

// ruleCandidates is the pool a case's rule writes are drawn from: the
// program's own rules — to retract, assert back, assert twice — and, for
// every derived predicate d, rules built to move the stratification:
//
//	copy_d(X̄) :- d(X̄).               a head on a brand-new predicate
//	d(X̄) :- copy_d(X̄).               with the one above, d's stratum is recursive
//	                                  and self-supporting; retracting either undoes it
//	non_d(X̄) :- dom(X̄), not d(X̄).    negation on the stratum below
//	d(X̄) :- dom(X̄), not non_d(X̄).    stratifiable only while non_d's rule is away
//	d(X̄) :- dom(X̄), not d(X̄).        never stratifiable
//
// dom binds each variable through the program's first fact predicate.
func ruleCandidates(p *datalog.Program) []datalog.Clause {
	var pool []datalog.Clause
	var dom *datalog.Atom
	for i, c := range p.Clauses {
		if !c.IsFact() {
			pool = append(pool, c)
		} else if dom == nil && len(c.Head.Args) > 0 {
			dom = &p.Clauses[i].Head
		}
	}
	seen := map[string]bool{}
	for _, c := range p.Clauses {
		d := c.Head
		if c.IsFact() || seen[d.Pred] || dom == nil {
			continue
		}
		seen[d.Pred] = true
		vars := make([]term.Term, len(d.Args))
		var binders []datalog.Literal
		for i := range vars {
			vars[i] = term.Var(fmt.Sprintf("X%d", i))
			args := []term.Term{vars[i]}
			for j := 1; j < len(dom.Args); j++ {
				args = append(args, term.Var(fmt.Sprintf("F%d_%d", i, j)))
			}
			binders = append(binders, datalog.Pos(datalog.NewAtom(dom.Pred, args...)))
		}
		head := datalog.NewAtom(d.Pred, vars...)
		cp, non := datalog.NewAtom("copy_"+d.Pred, vars...), datalog.NewAtom("non_"+d.Pred, vars...)
		guarded := func(h, negated datalog.Atom) datalog.Clause {
			return datalog.Rule(h, append(slices.Clone(binders), datalog.Neg(negated))...)
		}
		pool = append(pool, datalog.Rule(cp, datalog.Pos(head)), datalog.Rule(head, datalog.Pos(cp)),
			guarded(non, head), guarded(head, non), guarded(head, head))
	}
	return pool
}

// IncrementalCases generates n seeded (program, write sequence) cases
// cycling through the workload families. Deletions are drawn from the
// currently asserted base facts — including the program's own seed facts —
// so retract paths through load-bearing tuples are exercised; one assertion
// in four is on a derived predicate (randomDerivedAtom), and now and then such
// a fact is retracted alone, so that what becomes of the tuple is the rules'
// doing and nothing else's. About a third
// of the deltas change the rule set (ruleCandidates), alone or together with
// a fact. The generator's own copy of the program moves only on deltas the
// reference accepts, so it stays what a correct engine holds.
func IncrementalCases(seed int64, n int) []IncrementalCase {
	out := make([]IncrementalCase, 0, n)
	for i := 0; i < n; i++ {
		cfg := workload.DatalogConfig{
			Family: workload.DatalogFamily(i % workload.NumDatalogFamilies),
			Size:   3 + (i/workload.NumDatalogFamilies)%8,
			Seed:   seed + int64(i),
		}
		prog, _ := workload.DatalogProgram(cfg)
		r := rand.New(rand.NewSource(cfg.Seed ^ 0x1ced))
		state, pool := prog, ruleCandidates(prog)
		steps := 3 + r.Intn(6)
		writes := make([]WriteOp, 0, steps)
		for s := 0; s < steps; s++ {
			heads := ruleHeads(state)
			var facts, derived []datalog.Clause // state's fact clauses; those on a predicate a rule defines
			for _, c := range state.Clauses {
				if c.IsFact() {
					facts = append(facts, c)
					if defines(heads, c.Head.Pred) {
						derived = append(derived, c)
					}
				}
			}
			var op WriteOp
			nFacts, nRules := 1+r.Intn(3), 0
			switch {
			case len(derived) > 0 && r.Intn(8) == 0:
				op.Dels, nFacts = []datalog.Clause{derived[r.Intn(len(derived))]}, 0
			case len(pool) > 0 && r.Intn(3) == 0:
				nFacts, nRules = r.Intn(2), 1+r.Intn(5)/4
			}
			for ; nRules > 0; nRules-- {
				// Mostly a change that takes effect — retract what is there,
				// assert what is not — sometimes a duplicate, or a retract of
				// an absent rule.
				if c := pool[r.Intn(len(pool))]; slices.ContainsFunc(state.Clauses, c.Equal) != (r.Intn(5) == 0) {
					op.Dels = append(op.Dels, c)
				} else {
					op.Adds = append(op.Adds, c)
				}
			}
			for ; nFacts > 0; nFacts-- {
				if len(facts) > 0 && r.Intn(3) == 0 {
					op.Dels = append(op.Dels, facts[r.Intn(len(facts))])
				} else {
					a, ok := datalog.Atom{}, false
					if r.Intn(4) == 0 {
						a, ok = randomDerivedAtom(state, r, cfg.Size)
					}
					if !ok {
						a = randomEDBAtom(cfg.Family, r, cfg.Size)
					}
					op.Adds = append(op.Adds, datalog.Fact(a))
				}
			}
			if next := withOp(state, op); stratifiable(next) {
				state = next
			}
			writes = append(writes, op)
		}
		out = append(out, IncrementalCase{Seed: cfg.Seed, Family: cfg.Family, Program: prog, Writes: writes})
	}
	return out
}

// withOp returns the program after op, the reference a write sequence
// evolves, leaving p as it was: retracts first, each taking the first equal
// clause — fact or rule — if there is one; asserts appended.
func withOp(p *datalog.Program, op WriteOp) *datalog.Program {
	next := &datalog.Program{Queries: p.Queries, Clauses: slices.Clone(p.Clauses)}
	for _, d := range op.Dels {
		if i := slices.IndexFunc(next.Clauses, d.Equal); i >= 0 {
			next.Clauses = slices.Delete(next.Clauses, i, i+1)
		}
	}
	next.Add(op.Adds...)
	return next
}

func stratifiable(p *datalog.Program) bool {
	_, err := datalog.Stratify(p)
	return err == nil
}

// compareToFull diffs the maintained engine against fresh, a from-scratch
// build of full, the patched program: the tuple sets must be identical and
// every tuple's base count must match exactly. The compiled
// engine evaluates the same patched program as a third voice — its model
// must match the reference at every step of the write sequence, which is how
// the stateful campaign covers the plan cache under evolving fact sets.
func compareToFull(inc, fresh *datalog.Incremental, full *datalog.Program) string {
	if got, want := inc.Model().String(), fresh.Model().String(); got != want {
		return fmt.Sprintf("model mismatch\nincremental:\n%s\nfull:\n%s", got, want)
	}
	if got, want := inc.Counts(), fresh.Counts(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("base-count mismatch\nincremental: %v\nfull:        %v", got, want)
	}
	switch compiled, err := compile.Eval(full, nil); {
	case compile.IsFallback(err):
		// Routed to the interpreter; nothing to compare.
	case err != nil:
		return fmt.Sprintf("compiled re-derivation failed: %v", err)
	default:
		if got, want := compiled.String(), fresh.Model().String(); got != want {
			return fmt.Sprintf("model mismatch\ncompiled:\n%s\nfull:\n%s", got, want)
		}
	}
	return ""
}

// incDiverges replays the write sequence and returns a description of the
// first divergence from full re-derivation, or "" if the engine tracks the
// reference exactly. A program the engine rejects outright is not a
// divergence (there is nothing to maintain). A delta the reference cannot
// build — its rules are not stratifiable — must be refused by the engine
// too, and leave it what it was, and usable; any other refusal is a
// divergence.
func incDiverges(p *datalog.Program, writes []WriteOp) string {
	inc, err := datalog.NewIncremental(p, nil)
	if err != nil {
		return ""
	}
	return replayDiverges(inc, inc, p, writes)
}

// replayDiverges is incDiverges for an engine that came to p's model some
// other way (adoption): fresh is the from-scratch build of p it must equal
// before the first delta and track after each.
func replayDiverges(inc, fresh *datalog.Incremental, p *datalog.Program, writes []WriteOp) string {
	full := p
	if msg := compareToFull(inc, fresh, full); msg != "" {
		return "initial model: " + msg
	}
	for i, op := range writes {
		next := withOp(full, op)
		nextFresh, refErr := datalog.NewIncremental(next, nil)
		_, err := inc.ApplyClauses(context.Background(), op.Adds, op.Dels)
		switch {
		case refErr != nil && err == nil:
			return fmt.Sprintf("step %d (%s): accepted a delta full re-derivation refuses: %v", i, op, refErr)
		case refErr != nil:
			// Refused, as it must be: checked below against the state before.
		case err != nil:
			return fmt.Sprintf("step %d (%s): delta refused: %v", i, op, err)
		default:
			full, fresh = next, nextFresh
		}
		if msg := compareToFull(inc, fresh, full); msg != "" {
			return fmt.Sprintf("step %d (%s): %s", i, op, msg)
		}
	}
	return ""
}

// renderWrites is the surface form of a write sequence for reports.
func renderWrites(writes []WriteOp) string {
	steps := make([]string, len(writes))
	for i, op := range writes {
		steps[i] = op.String()
	}
	return strings.Join(steps, "; ")
}

// CheckIncremental cross-checks one case: the incrementally maintained
// model after every delta against full re-derivation. On divergence the
// write sequence is ddmin-minimized first, then the program is shrunk under
// the minimal sequence; nil means the engine agreed at every step.
func CheckIncremental(c IncrementalCase) *Disagreement {
	if incDiverges(c.Program, c.Writes) == "" {
		return nil
	}
	writes := ddmin(c.Writes, func(ws []WriteOp) bool {
		return incDiverges(c.Program, ws) != ""
	})
	if incDiverges(c.Program, writes) == "" {
		writes = c.Writes // ddmin needs >=1 op; the divergence may be initial
	}
	minimal := ShrinkDatalog(c.Program, func(p *datalog.Program) bool {
		return incDiverges(p, writes) != ""
	})
	return &Disagreement{
		Kind:      "incremental",
		Seed:      c.Seed,
		Family:    c.Family.String(),
		Source:    minimal.String(),
		Query:     renderWrites(writes),
		Disagrees: []string{"incremental"},
		Results: map[string]string{
			"incremental": incDiverges(minimal, writes),
			"full":        "reference re-derivation (semi-naive from scratch)",
		},
	}
}

// RunIncrementalCampaign checks n seeded write-sequence cases. Every
// ApplyClauses step inside a case is itself verified against full
// re-derivation, so Cases counts maintained deltas, not just programs.
func RunIncrementalCampaign(seed int64, n int) CampaignResult {
	res := CampaignResult{Programs: n}
	for _, c := range IncrementalCases(seed, n) {
		res.Cases += len(c.Writes)
		if d := CheckIncremental(c); d != nil {
			res.Disagreements = append(res.Disagreements, d)
		}
	}
	return res
}
