package multilog

// Incremental maintenance of prepared reductions. A reduction prepared via
// Prepare owns a counting-based incremental engine over its translated
// program; when the underlying database changes by facts only, a freshly
// translated reduction can be advanced from the old one by cloning that
// engine and applying the fact delta (AdvanceFrom) instead of re-deriving
// the fixpoint from scratch. QueryDeps and ImpactGraph expose the translated
// dependency structure so callers (the server's result cache) can invalidate
// only what a write could actually reach.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// DeltaReport describes how AdvanceFrom prepared a reduction.
type DeltaReport struct {
	// Incremental is true when the old engine was patched in place. False
	// means a full Prepare ran (rule sets differed, the old reduction was
	// not prepared, or the delta application failed); ChangedPreds is then
	// nil and callers must assume every predicate may have changed.
	Incremental bool
	// ChangedPreds lists the translated predicates whose derived tuple sets
	// actually changed, sorted. Empty with Incremental=true means the write
	// was a semantic no-op.
	ChangedPreds []string
	// Added and Deleted count net tuple-level changes across all predicates.
	Added, Deleted int
}

// AdvanceFrom prepares r by reusing old's incremental engine: when the two
// translated programs have identical rule multisets, the fact multiset delta
// is applied to a clone of old's engine, which becomes r's prepared model.
// Any other case — old nil or unprepared, rule changes, non-ground facts, a
// failed delta — falls back to a full Prepare. r itself serves concurrent
// readers only after AdvanceFrom returns; old is never mutated and can keep
// serving QueryPrepared calls throughout.
func (r *Reduction) AdvanceFrom(ctx context.Context, old *Reduction, limits resource.Limits) (DeltaReport, error) {
	full := func() (DeltaReport, error) {
		if err := r.Prepare(ctx, limits); err != nil {
			return DeltaReport{}, err
		}
		return DeltaReport{}, nil
	}
	if old == nil || old.inc == nil {
		return full()
	}
	oldRules, oldFacts, ok := splitProgram(old.Program)
	newRules, newFacts, ok2 := splitProgram(r.Program)
	if !ok || !ok2 || !equalSorted(oldRules, newRules) {
		return full()
	}
	var adds, dels []datalog.Atom
	for k, fc := range newFacts {
		for i := oldFacts[k].count; i < fc.count; i++ {
			adds = append(adds, fc.atom)
		}
	}
	for k, fc := range oldFacts {
		for i := newFacts[k].count; i < fc.count; i++ {
			dels = append(dels, fc.atom)
		}
	}
	sortByKey(adds)
	sortByKey(dels)
	inc := old.inc.Clone()
	rep := DeltaReport{Incremental: true}
	if len(adds)+len(dels) > 0 {
		res, err := inc.ApplyDeltaContext(ctx, adds, dels)
		if err != nil {
			// The clone is poisoned; discard it and rebuild from scratch
			// under the same limits.
			return full()
		}
		rep.ChangedPreds = res.ChangedPreds()
		for _, pd := range res.Changed {
			rep.Added += len(pd.Added)
			rep.Deleted += len(pd.Deleted)
		}
	}
	r.inc = inc
	r.model = inc.Model()
	r.deps = old.deps // rule sets are identical, so the edges are too
	if r.deps == nil {
		r.deps = dependencyEdges(r.Program)
	}
	return rep, nil
}

// Counts exposes the engine's per-tuple derivation counts (nil when the
// reduction is not prepared); used by the differential and crash harnesses.
func (r *Reduction) Counts() map[string]datalog.TupleCount {
	if r.inc == nil {
		return nil
	}
	return r.inc.Counts()
}

// factCount is one distinct ground fact with its multiplicity in a program.
type factCount struct {
	atom  datalog.Atom
	count int
}

// splitProgram separates a translated program into its rule multiset
// (canonical strings) and ground-fact multiset. ok is false when a fact
// clause has a non-ground head, which AdvanceFrom treats as non-diffable.
func splitProgram(p *datalog.Program) (rules []string, facts map[string]factCount, ok bool) {
	facts = map[string]factCount{}
	for _, c := range p.Clauses {
		if !c.IsFact() {
			rules = append(rules, c.String())
			continue
		}
		if !c.Head.IsGround() {
			return nil, nil, false
		}
		k := c.Head.Key()
		fc := facts[k]
		fc.atom, fc.count = c.Head, fc.count+1
		facts[k] = fc
	}
	sort.Strings(rules)
	return rules, facts, true
}

func equalSorted(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortByKey(as []datalog.Atom) {
	sort.Slice(as, func(i, j int) bool { return as[i].Key() < as[j].Key() })
}

// dependencyEdges builds the head-to-body predicate edges of a program,
// deduplicated, builtins skipped. Negated literals count as dependencies:
// a change below a negation can flip derivations above it.
func dependencyEdges(p *datalog.Program) map[string][]string {
	deps := map[string][]string{}
	seen := map[string]bool{}
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Atom.IsBuiltin() {
				continue
			}
			ek := c.Head.Pred + "\x00" + l.Atom.Pred
			if !seen[ek] {
				seen[ek] = true
				deps[c.Head.Pred] = append(deps[c.Head.Pred], l.Atom.Pred)
			}
		}
	}
	return deps
}

// QueryDeps returns the translated predicates q's answers can depend on: the
// goals' target predicates, closed downward over the reduced program's rule
// dependencies (including through negation). The result is sorted. A query
// whose cached answers should survive a write is exactly one whose QueryDeps
// are disjoint from the write's changed predicates. Safe for concurrent use
// once the reduction is prepared.
//
//vet:allow govcontext — pure graph walk over precomputed edges, no evaluation
func (r *Reduction) QueryDeps(q Query) []string {
	deps := r.deps
	if deps == nil {
		deps = dependencyEdges(r.Program)
	}
	seen := map[string]bool{}
	var stack []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			stack = append(stack, p)
		}
	}
	for _, g := range q {
		switch g.Kind {
		case GoalP, GoalL, GoalH:
			if !g.P.IsBuiltin() {
				add(g.P.Pred)
			}
		case GoalM, GoalB:
			// Mirror match(): only levels the user dominates are reachable.
			for _, lvl := range r.levelCandidates(g.M.Level) {
				if !r.Poset.Has(lvl) || !r.Poset.Dominates(r.User, lvl) {
					continue
				}
				switch {
				case g.Kind == GoalM:
					add(relPred(g.M.Pred, lvl))
				case g.Mode == ModeFir || g.Mode == ModeOpt || g.Mode == ModeCau:
					add(belPred(g.M.Pred, lvl, g.Mode))
				default:
					add(UserBelPred)
				}
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range deps[p] {
			add(d)
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ImpactGraph is the clearance-independent reverse dependency graph of a
// database's translation: body predicate to head predicates, unioned over
// the reductions at every asserted level. Fact translation does not depend
// on the clearance, while rule instances do (the λ static guards drop
// instances per clearance), so the union is a safe over-approximation of
// what any prepared reduction could re-derive from a written fact. The graph
// depends only on the database's rules — fact clauses contribute no edges —
// so it can be cached across fact-only writes.
type ImpactGraph struct {
	poset *lattice.Poset
	rev   map[string][]string
}

// NewImpactGraph builds the reverse dependency graph for db.
func NewImpactGraph(db *Database) (*ImpactGraph, error) {
	poset, err := db.Poset()
	if err != nil {
		return nil, err
	}
	g := &ImpactGraph{poset: poset, rev: map[string][]string{}}
	seen := map[string]bool{}
	for _, u := range poset.Labels() {
		red, err := Reduce(db, u)
		if err != nil {
			return nil, err
		}
		for _, c := range red.Program.Clauses {
			for _, l := range c.Body {
				if l.Atom.IsBuiltin() {
					continue
				}
				ek := l.Atom.Pred + "\x00" + c.Head.Pred
				if !seen[ek] {
					seen[ek] = true
					g.rev[l.Atom.Pred] = append(g.rev[l.Atom.Pred], c.Head.Pred)
				}
			}
		}
	}
	return g, nil
}

// Impact returns the translated predicates whose derived tuples could change
// at any clearance when the given fact clauses are asserted or retracted:
// the written facts' translated predicates closed upward over the reverse
// graph. Sorted. It errors on heads it cannot map (b-atom heads, levels not
// asserted by Λ); callers should fall back to invalidating everything.
func (g *ImpactGraph) Impact(delta []Clause) ([]string, error) {
	seen := map[string]bool{}
	var stack []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			stack = append(stack, p)
		}
	}
	for _, c := range delta {
		switch c.Head.Kind {
		case GoalM:
			var levels []lattice.Label
			if c.Head.M.Level.Kind() == term.KindConst {
				l := lattice.Label(c.Head.M.Level.Name())
				if !g.poset.Has(l) {
					return nil, fmt.Errorf("multilog: write impact: level %q is not asserted by Λ", l)
				}
				levels = []lattice.Label{l}
			} else {
				levels = g.poset.Labels()
			}
			for _, l := range levels {
				add(relPred(c.Head.M.Pred, l))
			}
		case GoalP, GoalL, GoalH:
			add(c.Head.P.Pred)
		default:
			return nil, fmt.Errorf("multilog: write impact: unsupported clause head %s", c.Head)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.rev[p] {
			add(h)
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}
