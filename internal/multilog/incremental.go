package multilog

// Incremental maintenance of prepared reductions. A reduction prepared via
// Prepare owns a counting-based incremental engine over its translated
// program; when the underlying database changes by Σ/Π clauses — facts or
// rules — the next reduction is advanced from the old one: the written
// clauses are translated and applied as a clause delta to a copy-on-write
// clone of that engine (Advance, AdvanceFrom), instead of re-reducing the
// database and re-deriving the fixpoint from scratch. QueryDeps and
// ImpactGraph expose the translated dependency structure so callers (the
// server's result cache) can invalidate only what a write could actually
// reach.

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// FullReason says why an advance re-derived the model from scratch instead of
// patching the old one; a Σ/Π write as such never is one. Zero: it did not.
type FullReason string

const (
	// ReasonOldNotIncremental: there is no old engine to patch — no old
	// reduction, one never prepared, or one prepared by the compiled engine
	// (InstallPrepared), which keeps no support counts.
	ReasonOldNotIncremental FullReason = "old-not-incremental"
	// ReasonRuleChange: the two reductions differ in what no clause delta
	// expresses — the lattice Λ, the clearance or the options (AdvanceFrom
	// can be handed such a pair; a server write cannot make one).
	ReasonRuleChange FullReason = "rule-change"
	// ReasonNonGround: a written fact is not ground after level grounding.
	ReasonNonGround FullReason = "non-ground"
	// ReasonDeltaFailed: translating or applying the delta failed (resource
	// limits, cancellation, an inadmissible level, a rule set that no longer
	// stratifies); the full path re-runs under the same bounds and reports
	// the error if it persists.
	ReasonDeltaFailed FullReason = "delta-failed"
)

// DeltaReport describes how an advance prepared a reduction.
type DeltaReport struct {
	// Incremental is true when the old engine was patched. False means a
	// full Prepare ran, for Reason; ChangedPreds is then nil and callers
	// must assume every predicate may have changed.
	Incremental bool
	// Reason is set exactly when Incremental is false.
	Reason FullReason
	// ChangedPreds lists the translated predicates whose derived tuple sets
	// actually changed, sorted. Empty with Incremental=true means the write
	// was a semantic no-op.
	ChangedPreds []string
	// Added and Deleted count net tuple-level changes across all predicates.
	Added, Deleted int
	// The translated rules that joined and left the reduced program: a rule's
	// instances at this clearance, a newly mentioned predicate's axioms.
	RulesAdded, RulesRemoved int
}

// Advance returns the prepared reduction, at old's clearance and options, of
// db — which must be old.DB with the clauses of removed taken out and those
// of added put in. The written Σ/Π clauses, facts and rules alike, are
// translated at this clearance (the translation of a clause depends on
// nothing but the clause, the lattice and the clearance) and applied as a
// clause delta to a copy-on-write clone of old's engine: the cost is what the
// clauses derive and the relations that touches, not the database. Only what
// FullReason lists is a full Reduce + Prepare of db. old is never mutated and
// keeps serving QueryPrepared calls throughout; two advances from the same
// old must not run at once (Store.Clone), which the server's update lock
// sees to.
func (old *Reduction) Advance(ctx context.Context, db *Database, added, removed []Clause, limits resource.Limits) (*Reduction, DeltaReport, error) {
	r, rep := old.advance(ctx, added, removed)
	if !rep.Incremental {
		r, err := ReduceOpts(db, old.User, old.opts)
		if err != nil {
			return nil, rep, err
		}
		return r, rep, r.Prepare(ctx, limits)
	}
	r.DB = db
	return r, rep, nil
}

// AdvanceFrom prepares r, a fresh reduction of a later version of old's
// database, by the same delta path as Advance: the clause-level difference
// between old.DB and r.DB is found structurally and handed to the one core,
// and r becomes what Advance would have returned. r itself serves concurrent
// readers only after AdvanceFrom returns.
func (r *Reduction) AdvanceFrom(ctx context.Context, old *Reduction, limits resource.Limits) (DeltaReport, error) {
	rep := DeltaReport{Reason: ReasonOldNotIncremental}
	if old != nil {
		added, removed := diffClauses(old.DB.Sigma, r.DB.Sigma)
		piAdded, piRemoved := diffClauses(old.DB.Pi, r.DB.Pi)
		lamAdded, lamRemoved := diffClauses(old.DB.Lambda, r.DB.Lambda)
		if len(lamAdded)+len(lamRemoved) > 0 || old.User != r.User || old.opts != r.opts {
			rep.Reason = ReasonRuleChange
		} else {
			var next *Reduction
			if next, rep = old.advance(ctx, append(added, piAdded...), append(removed, piRemoved...)); rep.Incremental {
				next.DB = r.DB
				*r = *next
			}
		}
	}
	if !rep.Incremental {
		return rep, r.Prepare(ctx, limits)
	}
	return rep, nil
}

// advance is the delta core: it translates a Σ/Π write at old's clearance
// and applies it to a clone of old's engine, returning the next reduction
// (its DB left to the caller), or a report naming why it cannot. What the
// translation writes, needs and preds, are the next reduction's own copies:
// old is serving. A write that translates to nothing shares old's engine.
func (old *Reduction) advance(ctx context.Context, added, removed []Clause) (*Reduction, DeltaReport) {
	if old.inc == nil {
		return nil, DeltaReport{Reason: ReasonOldNotIncremental}
	}
	r := &Reduction{User: old.User, Poset: old.Poset, opts: old.opts,
		needs: maps.Clone(old.needs), preds: maps.Clone(old.preds)}
	var dels []datalog.Clause
	adds, reason := r.translateDelta(added, true)
	if reason == "" {
		dels, reason = r.translateDelta(removed, false)
	}
	if reason != "" {
		return nil, DeltaReport{Reason: reason}
	}
	rep := DeltaReport{Incremental: true}
	// The Program is a copy even when nothing changed: RequireBelief appends.
	r.Program, r.inc, r.deps = patchProgram(old.Program, adds, dels), old.inc, old.deps
	if len(adds)+len(dels) > 0 {
		r.inc = old.inc.Clone()
		res, err := r.inc.ApplyClauses(ctx, adds, dels)
		if err != nil {
			// The clone is discarded; the caller rebuilds from scratch under
			// the same limits.
			return nil, DeltaReport{Reason: ReasonDeltaFailed}
		}
		rep.ChangedPreds = res.ChangedPreds()
		for _, pd := range res.Changed {
			rep.Added += len(pd.Added)
			rep.Deleted += len(pd.Deleted)
		}
		rep.RulesAdded, rep.RulesRemoved = res.RulesAdded, res.RulesRemoved
		if rep.RulesAdded+rep.RulesRemoved > 0 {
			r.deps = dependencyEdges(r.Program)
		}
	}
	r.model = r.inc.Model()
	return r, rep
}

// translateDelta maps written Σ/Π clauses to the clauses, facts and rules,
// they contribute to the reduced program at r's clearance (translateClause).
// With register, a clause that mentions an m-predicate r has not registered
// brings that predicate's axioms along (emitPredAxioms); a retract never
// unregisters one, so a predicate whose last mention is gone keeps its
// axioms, which derive nothing. It writes r.needs, r.preds and r.Program.
func (r *Reduction) translateDelta(cs []Clause, register bool) ([]datalog.Clause, FullReason) {
	r.Program = &datalog.Program{}
	for _, c := range cs {
		if c.Head.Kind != GoalM && c.Head.Kind != GoalP {
			return nil, ReasonRuleChange // Λ clauses change the lattice
		}
		for _, g := range append([]Goal{c.Head}, c.Body...) {
			if register && (g.Kind == GoalM || g.Kind == GoalB) && !r.preds[g.M.Pred] {
				r.preds[g.M.Pred] = true
				r.emitPredAxioms(g.M.Pred)
			}
		}
		if err := r.translateClause(c); err != nil {
			return nil, ReasonDeltaFailed
		}
	}
	for _, dc := range r.Program.Clauses {
		if dc.IsFact() && !dc.Head.IsGround() {
			return nil, ReasonNonGround
		}
	}
	return r.Program.Clauses, ""
}

// diffClauses returns a clause-level difference between two versions of one
// database component, compared structurally: new is old minus removed plus
// added, as multisets. It walks both in order, which finds the minimal
// difference for the edits the write path makes (clauses filtered out in
// place, clauses appended) and a correct, larger one for anything else.
func diffClauses(old, new []Clause) (added, removed []Clause) {
	j := 0
	for _, c := range old {
		if j < len(new) && c.Equal(new[j]) {
			j++
		} else {
			removed = append(removed, c)
		}
	}
	return new[j:len(new):len(new)], removed
}

// patchProgram returns p without the first clause equal to each clause of
// dels (one that is not there is a no-op) and with adds appended, everything
// else in place and in order: the engine's own reading of a clause delta.
func patchProgram(p *datalog.Program, adds, dels []datalog.Clause) *datalog.Program {
	out := &datalog.Program{Queries: p.Queries, Clauses: make([]datalog.Clause, 0, len(p.Clauses)+len(adds))}
	dels = slices.Clone(dels)
next:
	for _, c := range p.Clauses {
		for i, d := range dels {
			if c.Equal(d) {
				dels = slices.Delete(dels, i, i+1)
				continue next
			}
		}
		out.Clauses = append(out.Clauses, c)
	}
	out.Clauses = append(out.Clauses, adds...)
	return out
}

// Counts exposes the engine's per-tuple derivation counts (nil when the
// reduction is not prepared); used by the differential and crash harnesses.
func (r *Reduction) Counts() map[string]datalog.TupleCount {
	if r.inc == nil {
		return nil
	}
	return r.inc.Counts()
}

// RulePreds returns the translated predicates the reduced program's rules
// mention, in first-occurrence order — what a compiled plan of it is filed
// under. The lattice's own predicates are left out: every reduction of every
// database has dominate, level and order, so they tell no two programs'
// plans apart. Fact clauses are not visited.
func (r *Reduction) RulePreds() []string {
	seen := map[string]bool{predDominate: true, predLevel: true, predOrder: true}
	var out []string
	for _, c := range r.Program.Clauses {
		if c.IsFact() {
			continue
		}
		for _, l := range append([]datalog.Literal{{Atom: c.Head}}, c.Body...) {
			if p := l.Atom.Pred; !seen[p] && !l.Atom.IsBuiltin() {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
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
// asserted by Λ, m-predicates Σ did not mention when the graph was built);
// callers should fall back to invalidating everything and rebuild the graph.
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
				rel := relPred(c.Head.M.Pred, l)
				if len(g.rev[rel]) == 0 {
					// Every Σ predicate's rel feeds at least its own level's
					// fir axiom, so this one postdates the graph: its belief
					// axioms, and their edges, arrive with the write.
					return nil, fmt.Errorf("multilog: write impact: predicate %q is new to Σ", c.Head.M.Pred)
				}
				add(rel)
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
