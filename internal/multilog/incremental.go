package multilog

// Incremental maintenance of prepared reductions. When the underlying
// database changes by Σ/Π clauses — facts or rules — the next reduction is
// advanced from the old one: the written clauses are translated and applied
// as a clause delta to a copy-on-write clone of the old reduction's
// maintenance engine (Advance, AdvanceFrom), instead of re-reducing the
// database and re-deriving the fixpoint from scratch; the engine — rules,
// model, base counts — is all an advanced reduction holds. A reduction whose
// model another engine built (InstallPrepared) gets that engine at its first
// advance, by counting the program's fact clauses into a clone of the model
// (datalog.Adopt). An advance reports the translated relations whose tuples
// changed at its clearance, and the tuples; QueryDeps names the relations a
// query reads and a PatchPlan what a single goal's answers follow, so a cache
// of answers (the server's) patches or drops exactly the entries a write changed.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/resource"
	"repro/internal/term"
)

// Refusal names why a reduction could not be advanced by a delta; a Σ/Π write
// to a prepared reduction as such never is one. Zero: it was advanced.
type Refusal string

const (
	// ReasonOldNotIncremental: there is no old model to patch — no old
	// reduction, or one never prepared.
	ReasonOldNotIncremental Refusal = "old-not-incremental"
	// ReasonRuleChange: the two reductions differ in what no clause delta
	// expresses — the lattice Λ, the clearance or the options (AdvanceFrom
	// can be handed such a pair; a server write cannot make one).
	ReasonRuleChange Refusal = "rule-change"
	// ReasonNonGround: a written fact is not ground after level grounding.
	ReasonNonGround Refusal = "non-ground"
	// ReasonDeltaFailed: adopting the model, translating the delta or applying
	// it failed (resource limits, cancellation, an inadmissible level, a rule
	// set that no longer stratifies); the error says which.
	ReasonDeltaFailed Refusal = "delta-failed"
)

// DeltaReport describes how an advance prepared a reduction.
type DeltaReport struct {
	// Reason is empty when the old model was patched. Otherwise it was not,
	// for Reason: Advance then returns an error, AdvanceFrom has run a full
	// Prepare and every predicate may have changed.
	Reason Refusal
	// Adopted: the advance began by adopting an installed model, the first
	// write after a cold build.
	Adopted bool
	// ChangedPreds lists the translated predicates whose derived tuple sets
	// actually changed, sorted. Empty with no Reason means the write was a
	// semantic no-op.
	ChangedPreds []string
	Changed      map[string]datalog.PredDelta // ChangedPreds' net tuples (datalog.DeltaResult.Changed)
	// Added and Deleted count net tuple-level changes across all predicates.
	Added, Deleted int
	// The translated rules that joined and left the reduced program: a rule's
	// instances at this clearance, a newly mentioned predicate's axioms.
	RulesAdded, RulesRemoved int
}

// Advance returns the prepared reduction, at old's clearance and options, of
// db — which must be old.DB with the clauses of removed taken out and those
// of added put in, or nil — or an error, the report naming the reason; it
// never re-derives a model. db is only recorded, as the result's DB: a
// caller that never asks the result for a belief triple its rules lack
// (QueryContext's lazy registration) may pass nil, and need not materialize
// a database per write. The written Σ/Π clauses, facts and rules alike, are
// translated at this clearance (the translation of a clause depends on
// nothing but the clause, the lattice and the clearance) and applied as a
// clause delta to a copy-on-write clone of old's engine, under limits: the
// cost is what the clauses derive and the relations that touches, not the
// database — plus, when old's model was installed and never advanced, the
// fact clauses counted into a clone of it. The result holds no Program: its
// engine has the rules. A write that translates to nothing shares old's
// engine and model — or, with no engine yet, the model and, read-only, the
// Program the next write adopts it by. old is never mutated and keeps
// serving QueryPrepared calls throughout; two advances from the same old
// must not run at once (Store.Clone), which the server's update lock sees to.
func (old *Reduction) Advance(ctx context.Context, db *Database, added, removed []Clause, limits resource.Limits) (*Reduction, DeltaReport, error) {
	refuse := func(reason Refusal, err error) (*Reduction, DeltaReport, error) {
		return nil, DeltaReport{Reason: reason}, fmt.Errorf("multilog: advance refused (%s): %w", reason, err)
	}
	if old.model == nil || old.Program == nil && old.inc == nil {
		return refuse(ReasonOldNotIncremental, errors.New("the old reduction was never prepared, or is a view"))
	}
	r := &Reduction{DB: db, User: old.User, Poset: old.Poset, opts: old.opts,
		needs: map[belNeed]bool{}, preds: old.preds}
	adds, reason, err := r.translateDelta(added, true)
	var dels []datalog.Clause
	if err == nil {
		dels, reason, err = r.translateDelta(removed, false)
	}
	if err != nil {
		return refuse(reason, err)
	}
	var rep DeltaReport
	r.Program, r.inc, r.model = nil, old.inc, old.model
	if len(adds)+len(dels) == 0 {
		if old.inc == nil { // clipped: neither side's RequireBelief appends reach the other
			r.Program, r.needs = &datalog.Program{Queries: old.Program.Queries, Clauses: slices.Clip(old.Program.Clauses)}, maps.Clone(old.needs)
		}
		return r, rep, nil
	}
	if old.inc != nil {
		r.inc = old.inc.Clone()
		r.inc.Limits = limits
	} else if r.inc, err = datalog.Adopt(old.Program, old.model, limits); err != nil {
		return refuse(ReasonDeltaFailed, err)
	} else {
		rep.Adopted = true
	}
	res, err := r.inc.ApplyClauses(ctx, adds, dels)
	if err != nil {
		return refuse(ReasonDeltaFailed, err) // the clone is discarded
	}
	rep.ChangedPreds, rep.Changed = res.ChangedPreds(), res.Changed
	for _, pd := range res.Changed {
		rep.Added += len(pd.Added)
		rep.Deleted += len(pd.Deleted)
	}
	rep.RulesAdded, rep.RulesRemoved = res.RulesAdded, res.RulesRemoved
	r.model = r.inc.Model()
	return r, rep, nil
}

// AdvanceFrom prepares r, a fresh reduction of a later version of old's
// database, by way of Advance: the clause-level difference between old.DB and
// r.DB is found structurally, and r becomes what Advance returns for it,
// keeping its own Program where that has none; where Advance would refuse, r
// is prepared from scratch and the report names the reason. r itself serves
// concurrent readers only after AdvanceFrom returns.
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
			var err error
			if next, rep, err = old.Advance(ctx, r.DB, append(added, piAdded...), append(removed, piRemoved...), limits); err == nil {
				if next.Program == nil {
					next.Program, next.needs = r.Program, r.needs
				}
				*r = *next
				return rep, nil
			}
		}
	}
	return rep, r.Prepare(ctx, limits)
}

// translateDelta maps written Σ/Π clauses to the clauses, facts and rules,
// they contribute to the reduced program at r's clearance (translateClause).
// With register, a clause that mentions an m-predicate r has not registered
// brings that predicate's axioms along (emitPredAxioms); a retract never
// unregisters one, so a predicate whose last mention is gone keeps its
// axioms, which derive nothing. It writes r.needs, r.preds and r.Program;
// r.preds, which Advance shares with the old reduction, is copied before its
// first new predicate.
func (r *Reduction) translateDelta(cs []Clause, register bool) ([]datalog.Clause, Refusal, error) {
	r.Program = &datalog.Program{}
	copied := false
	for _, c := range cs {
		if c.Head.Kind != GoalM && c.Head.Kind != GoalP {
			return nil, ReasonRuleChange, fmt.Errorf("%s changes the lattice Λ", c)
		}
		for _, g := range append([]Goal{c.Head}, c.Body...) {
			if register && (g.Kind == GoalM || g.Kind == GoalB) && !r.preds[g.M.Pred] {
				if !copied {
					r.preds, copied = maps.Clone(r.preds), true
				}
				r.preds[g.M.Pred] = true
				r.emitPredAxioms(g.M.Pred)
			}
		}
		if err := r.translateClause(c); err != nil {
			return nil, ReasonDeltaFailed, err
		}
	}
	for _, dc := range r.Program.Clauses {
		if dc.IsFact() && !dc.Head.IsGround() {
			return nil, ReasonNonGround, fmt.Errorf("fact %s is not ground", dc)
		}
	}
	return r.Program.Clauses, "", nil
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

// Counts exposes the engine's per-tuple base-assertion counts (nil when the
// reduction has no engine yet); used by the differential and crash harnesses.
func (r *Reduction) Counts() map[string]int {
	if r.inc == nil {
		return nil
	}
	return r.inc.Counts()
}

// QueryDeps returns the translated relations match reads to answer q: each
// goal's target relation at every level the user dominates, sorted. The model
// is materialized, so q's answers change only when the tuples of one of these
// relations do: a cached answer survives a write whose DeltaReport.ChangedPreds
// at this clearance misses them all. Safe for concurrent use.
//
//vet:allow govcontext — names relations from the query and the lattice, no evaluation
func (r *Reduction) QueryDeps(q Query) []string {
	var out []string
	for _, g := range q {
		switch g.Kind {
		case GoalP, GoalL, GoalH:
			if !g.P.IsBuiltin() {
				out = append(out, g.P.Pred)
			}
		case GoalM, GoalB:
			// Mirror match(): only levels the user dominates are read.
			for _, lvl := range r.levelCandidates(g.M.Level) {
				if !r.Poset.Has(lvl) || !r.Poset.Dominates(r.User, lvl) {
					continue
				}
				switch {
				case g.Kind == GoalM:
					out = append(out, relPred(g.M.Pred, lvl))
				case g.Mode == ModeFir || g.Mode == ModeOpt || g.Mode == ModeCau:
					out = append(out, belPred(g.M.Pred, lvl, g.Mode))
				default:
					out = append(out, UserBelPred)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ImpactGraph is the clearance-independent reverse dependency graph of a
// database's translation: body predicate to head predicates, unioned over
// the reductions at every asserted level. Fact translation does not depend
// on the clearance, while rule instances do (the λ static guards drop
// instances per clearance), so the union is a safe over-approximation of
// what any prepared reduction could re-derive from a written fact. Nothing
// on the serving path uses it: an advance reports exactly what a write
// changed at its clearance (DeltaReport.ChangedPreds). Its callers are
// TestTranslatedDeltaMatchesProgramDiff, which holds those reports inside
// the graph's closure, compile's plan-cache test, which invalidates plans by
// it, and bench/mirror.go, which prices it as the multilog.impact layer.
type ImpactGraph struct {
	poset *lattice.Poset
	rev   map[string][]string
}

// NewImpactGraph builds the reverse dependency graph for db from the
// translation, at every level, of its rules and of the axioms of every
// predicate Σ mentions — a fact clause adds no edge, so none is translated.
func NewImpactGraph(db *Database) (*ImpactGraph, error) {
	poset, err := db.Poset()
	if err != nil {
		return nil, err
	}
	g := &ImpactGraph{poset: poset, rev: map[string][]string{}}
	seen := map[string]bool{}
	for _, u := range poset.Labels() {
		red, err := translate(db, poset, u, Options{}, false)
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
// asserted by Λ, m-predicates Σ did not mention when the graph was built).
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
