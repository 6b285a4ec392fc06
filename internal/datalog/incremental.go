package datalog

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/resource"
	"repro/internal/term"
)

// errStopEnum aborts a body enumeration early (derivability checks need only
// one firing); it never escapes this file.
var errStopEnum = errors.New("datalog: stop enumeration")

// This file implements incremental maintenance of a stratified minimal
// model. The model is a set; base assertions (fact clauses, EDB inserts) are
// a multiset, one count per tuple beside it in the store; whether a rule
// derives a tuple is never stored, it is asked of the rules and the live
// model when — and only when — something that supported the tuple went away.
// ApplyClauses patches the fixpoint in place instead of re-running Eval.
//
// What went away seeds a stratum's deletion phase: tuples deleted below it,
// the firings of a removed rule, and a tuple of the stratum whose last base
// assertion was retracted (a tuple no rule can derive leaves at once). Every
// stratum runs the same phase, DRed (delete-and-rederive): a firing that
// survives proves nothing by itself — in a recursive stratum it may run
// through the tuple's own consequences — so tuples reachable from a seed are
// over-deleted transitively, then re-derived from the surviving model before
// the net deletions are reported. A non-recursive stratum is the case whose
// over-delete never loops back.
//
// Insertions run standard semi-naive delta propagation, including the
// firings a deletion below a stratum enables through a negated literal.
//
// A delta may also change the rule set (ApplyClauses): the next rule set is
// edited, its strata lifted where the added rules require, before the model
// is touched, and its strata order the same phases — seeded with a removed
// rule's firings, firing an added rule once. Any valid stratification will
// do: the perfect model does not depend on which one orders the phases.

// litRef locates one body-literal occurrence of a predicate.
type litRef struct{ clause, lit int }

// PredDelta is the net membership change of one predicate across a delta.
type PredDelta struct {
	Added, Deleted []Atom
}

// DeltaResult reports what one ApplyClauses changed in the model.
type DeltaResult struct {
	// Changed maps each predicate whose tuple set changed to its net
	// additions and deletions, each sorted by atom key.
	Changed map[string]PredDelta
	// Rule-set changes that took effect (retracting an absent rule is none).
	RulesAdded, RulesRemoved int
	// OverDeleted and ReDerived count, per predicate, the tuples DRed's
	// deletion phases took out and put back; nil when there were none. With
	// Changed's net deletions they say what DRed did beyond the net change.
	OverDeleted, ReDerived map[string]int
}

// ChangedPreds returns the sorted predicates whose tuple sets changed.
func (r *DeltaResult) ChangedPreds() []string {
	out := make([]string, 0, len(r.Changed))
	for p := range r.Changed {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ruleSet is a rule multiset with the indexes maintenance runs on. It is
// immutable once built: engines that Clone one another share it, and a delta
// that changes the rules builds the next one (edit) instead of patching it.
//
// Like a relation (store.go), a rule set is flat or a delta. A flat one,
// newRuleSet's — the only full build — holds every rule under the minimal
// strata. A delta holds a frozen flat base and what edits changed over it:
// the rules they appended, whose ids run on from the base's; the base ids
// they tombstoned; the index entries of the appended rules; and the stratum
// of each predicate a lift raised. Every lookup reads the delta, then the
// base, and skips tombstoned ids, so a base rule keeps its id until a fold;
// an appended rule's id moves down when an earlier appended one is retracted
// (edit). Editing a delta copies the delta and keeps its base; a delta that
// reaches FoldAt(len(base.rules)) changes is rebuilt flat.
type ruleSet struct {
	rules     []Clause            // by id; a delta's own, from len(base.rules) on
	stratumOf map[string]int      // predicate -> stratum; a delta's, where a lift raised it
	numStrata int                 // above every stratum
	headRules map[string][]int    // head predicate -> rule ids
	posRefs   map[string][]litRef // predicate -> positive body occurrences
	negRefs   map[string][]litRef // predicate -> negated body occurrences

	base *ruleSet     // a delta's frozen flat base; nil for a flat rule set
	dead map[int]bool // base rule ids the delta removed
}

// Incremental maintains the minimal model of a program under clause deltas:
// fact clauses are base assertions, rule clauses change the rule set. Build
// one with NewIncremental. Not safe for concurrent use; Clone before mutating
// a shared engine. The base counts live in the model's relations, beside the
// tuples (Store.support), so the model is the engine's only per-tuple state.
type Incremental struct {
	*ruleSet
	model *Store // counting: every tuple carries its base-assertion count

	// Limits bounds each ApplyClauses call (steps, facts, memory count the
	// delta's own work, not the standing model). The zero value is unlimited.
	Limits resource.Limits

	broken bool
	gov    *resource.Governor
}

// NewIncremental evaluates program ∪ edb and returns an engine holding the
// model and its base counts. edb may be nil.
func NewIncremental(p *Program, edb *Store) (*Incremental, error) {
	return NewIncrementalContext(context.Background(), p, edb, resource.Limits{})
}

// NewIncrementalContext is NewIncremental bounded by ctx and limits; the
// limits also bound every later ApplyClauses. Unlike EvalContext, a limit stop
// is a hard error: a partial model cannot be maintained.
func NewIncrementalContext(ctx context.Context, p *Program, edb *Store, limits resource.Limits) (*Incremental, error) {
	ev := Evaluator{Limits: limits}
	model, err := ev.EvalContext(ctx, p, edb)
	if err != nil {
		return nil, err
	}
	return seedCounts(p, edb, model, limits)
}

// Adopt returns an engine over model, the minimal model of p as any evaluator
// built it (internal/compile's, say), without deriving it again: an engine
// holds nothing about a tuple but its base assertions, and those are p's fact
// clauses. The engine works on a copy-on-write clone, whose fact clauses'
// counts change only the relations they are in; model itself may be serving
// readers and is never written (but, Store.Clone, not cloned by anyone else
// meanwhile). model must be an evaluator's output, every base count zero: an
// engine's own model carries counts, which would be counted twice. A model
// missing the tuple of a fact clause is refused; any other way of not being
// p's least model nothing here can tell. limits bound every later delta.
func Adopt(p *Program, model *Store, limits resource.Limits) (*Incremental, error) {
	return seedCounts(p, nil, model.Clone(), limits)
}

// seedCounts makes model, the minimal model of p ∪ edb as an evaluator built
// it — every base count zero — an engine's own: the rule set, and a base
// count per fact clause and EDB fact.
func seedCounts(p *Program, edb, model *Store, limits resource.Limits) (*Incremental, error) {
	rs, err := newRuleSet(p.Clauses)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{ruleSet: rs, model: model, Limits: limits}
	for _, c := range p.Clauses {
		if c.IsFact() {
			if err := inc.bump(c.Head); err != nil {
				return nil, err
			}
		}
	}
	if edb != nil {
		for _, pred := range edb.Preds() {
			for _, f := range edb.Facts(pred) {
				if err := inc.bump(f); err != nil {
					return nil, err
				}
			}
		}
	}
	return inc, nil
}

// newRuleSet stratifies and indexes the rules among clauses; facts are
// skipped. It fails when the rules are not stratifiable.
func newRuleSet(clauses []Clause) (*ruleSet, error) {
	stratum, err := Stratify(&Program{Clauses: clauses})
	if err != nil {
		return nil, err
	}
	rs := &ruleSet{
		stratumOf: stratum,
		numStrata: 1,
		headRules: make(map[string][]int, len(stratum)),
		posRefs:   make(map[string][]litRef, len(stratum)),
		negRefs:   map[string][]litRef{},
	}
	for _, s := range stratum {
		rs.numStrata = max(rs.numStrata, s+1)
	}
	for _, c := range clauses {
		if !c.IsFact() {
			rs.index(c)
		}
	}
	return rs, nil
}

// index appends c to rs's own rules and its entries to rs's own indexes.
func (rs *ruleSet) index(c Clause) {
	id := rs.size()
	rs.rules = append(rs.rules, c)
	rs.headRules[c.Head.Pred] = append(rs.headRules[c.Head.Pred], id)
	for li, l := range c.Body {
		if l.Atom.IsBuiltin() {
			continue
		}
		refs := rs.posRefs
		if l.Negated {
			refs = rs.negRefs
		}
		refs[l.Atom.Pred] = append(refs[l.Atom.Pred], litRef{id, li})
	}
}

// size is the number of rule ids rs has handed out, tombstoned ones included.
func (rs *ruleSet) size() int {
	if rs.base == nil {
		return len(rs.rules)
	}
	return len(rs.base.rules) + len(rs.rules)
}

// rule returns the rule with id id.
func (rs *ruleSet) rule(id int) Clause {
	if rs.base != nil {
		if id < len(rs.base.rules) {
			return rs.base.rules[id]
		}
		id -= len(rs.base.rules)
	}
	return rs.rules[id]
}

// stratum returns pred's stratum.
func (rs *ruleSet) stratum(pred string) int {
	s, ok := rs.stratumOf[pred]
	if !ok && rs.base != nil {
		s = rs.base.stratumOf[pred]
	}
	return s
}

// eachHead calls fn on every live rule whose head predicate is pred, in id
// order, and returns fn's first error.
func (rs *ruleSet) eachHead(pred string, fn func(id int, c Clause) error) error {
	lists := [2][]int{rs.headRules[pred]}
	if rs.base != nil {
		lists = [2][]int{rs.base.headRules[pred], rs.headRules[pred]}
	}
	for _, ids := range lists {
		for _, id := range ids {
			if rs.dead[id] {
				continue
			}
			if err := fn(id, rs.rule(id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// defines reports whether a live rule has head predicate pred.
func (rs *ruleSet) defines(pred string) bool {
	return rs.eachHead(pred, func(int, Clause) error { return errStopEnum }) != nil
}

// eachRef calls fn on every live body occurrence of pred — the negated ones
// when neg, else the positive ones — with its rule, in id order, and returns
// fn's first error.
func (rs *ruleSet) eachRef(pred string, neg bool, fn func(rf litRef, c Clause) error) error {
	refs := func(r *ruleSet) []litRef {
		if neg {
			return r.negRefs[pred]
		}
		return r.posRefs[pred]
	}
	lists := [2][]litRef{refs(rs)}
	if rs.base != nil {
		lists = [2][]litRef{refs(rs.base), refs(rs)}
	}
	for _, list := range lists {
		for _, rf := range list {
			if rs.dead[rf.clause] {
				continue
			}
			if err := fn(rf, rs.rule(rf.clause)); err != nil {
				return err
			}
		}
	}
	return nil
}

// live returns the rules rs holds, in id order.
func (rs *ruleSet) live() []Clause {
	if rs.base == nil {
		return rs.rules
	}
	out := make([]Clause, 0, rs.size()-len(rs.dead))
	for id := 0; id < rs.size(); id++ {
		if !rs.dead[id] {
			out = append(out, rs.rule(id))
		}
	}
	return out
}

// delta returns a private delta holding what rs holds: a copy of rs's delta
// over the same base, or an empty delta over a flat rs. The copy shares rs's
// lists clipped to their length, so an append reallocates one instead of
// writing into an array rs or another copy may use.
func (rs *ruleSet) delta() *ruleSet {
	if rs.base == nil {
		return &ruleSet{
			stratumOf: map[string]int{},
			numStrata: rs.numStrata,
			headRules: map[string][]int{},
			posRefs:   map[string][]litRef{},
			negRefs:   map[string][]litRef{},
			base:      rs,
			dead:      map[int]bool{},
		}
	}
	return &ruleSet{
		rules:     rs.rules[:len(rs.rules):len(rs.rules)],
		stratumOf: maps.Clone(rs.stratumOf),
		numStrata: rs.numStrata,
		headRules: clipped(rs.headRules),
		posRefs:   clipped(rs.posRefs),
		negRefs:   clipped(rs.negRefs),
		base:      rs.base,
		dead:      maps.Clone(rs.dead),
	}
}

// clipped returns a copy of m whose lists have no spare capacity.
func clipped[T any](m map[string][]T) map[string][]T {
	c := make(map[string][]T, len(m))
	for k, list := range m {
		c[k] = list[:len(list):len(list)]
	}
	return c
}

// changes is the size of a delta: what a fold rebuilds away.
func (rs *ruleSet) changes() int { return len(rs.rules) + len(rs.dead) + len(rs.stratumOf) }

// edit returns the rule set without the first structurally equal instance of
// each rule of dels (one that is not there is a no-op, like retracting an
// absent assertion) and with adds appended, and the rules it removed. rs may
// be serving other engines and is never written; an edit that changes nothing
// returns rs itself.
//
// The result is a delta over rs's base. A removed rule is found among its
// head predicate's rules. A base rule is tombstoned; a rule the delta itself
// appended leaves the delta's rules, whose indexes are rebuilt from those
// that stay — O(delta) — so an assert and a retract of one rule net out
// and only base ids are ever tombstoned. No stratum moves: a
// stratification stays valid for a subset of its rules. An added rule's
// edges lift its head's stratum as far as they require, and the lift runs on
// through every rule reading a predicate that rose. The strata stay valid
// but may be coarser than the minimal ones, which is sound: a stratified
// program's perfect model does not depend on the stratification chosen (Apt,
// Blair and Walker, 1988). A stratum that would rise past the number of
// predicates (lift) means a negative cycle — or strata that removals left
// coarse — so the live rules are stratified afresh: Stratify's error, byte
// for byte, or a flat rule set. So is a delta that reaches
// FoldAt(len(base.rules)) changes, which resets the strata to the minimal
// ones.
func (rs *ruleSet) edit(adds, dels []Clause) (*ruleSet, []Clause, error) {
	for _, c := range adds {
		if err := ValidateClause(c); err != nil {
			return nil, nil, err
		}
	}
	next := rs.delta()
	var removed []Clause
	for _, d := range dels {
		// The only error is errStopEnum, at the first equal live rule.
		_ = next.eachHead(d.Head.Pred, func(id int, c Clause) error {
			if !c.Equal(d) {
				return nil
			}
			next.dead[id] = true
			removed = append(removed, c)
			return errStopEnum
		})
	}
	if len(adds)+len(removed) == 0 {
		return rs, nil, nil
	}
	next.dropOwnDead()
	for _, c := range adds {
		next.index(c)
	}
	if !next.lift(adds) || next.changes() >= FoldAt(len(next.base.rules)) {
		flat, err := newRuleSet(next.live())
		return flat, removed, err
	}
	return next, removed, nil
}

// dropOwnDead takes the delta's own rules it tombstoned out of its rules and
// rebuilds its own indexes from the rest, which keep their order: the ids
// after a dropped rule move down, and only base ids stay tombstoned.
func (rs *ruleSet) dropOwnDead() {
	nb, own := len(rs.base.rules), rs.rules
	dropped := false
	for id := range rs.dead {
		dropped = dropped || id >= nb
	}
	if !dropped {
		return
	}
	// Fresh lists: own and the indexes delta copied may be rs's source's.
	rs.rules = make([]Clause, 0, len(own))
	rs.headRules, rs.posRefs, rs.negRefs = map[string][]int{}, map[string][]litRef{}, map[string][]litRef{}
	for i, c := range own {
		if rs.dead[nb+i] {
			delete(rs.dead, nb+i)
			continue
		}
		rs.index(c)
	}
}

// lift raises strata, in rs's own overrides, until every edge of the added
// rules and every edge reading a predicate that rose holds: a positive body
// predicate at or below its head, a negated one strictly below. It reports
// false, stopping, when a stratum would pass the number of predicates with a
// stratum in rs, plus one: every level of a minimal stratification below the
// top holds a predicate that rose there, so only a negative cycle, or strata
// that removals left coarse, climbs that high.
func (rs *ruleSet) lift(added []Clause) bool {
	var work []string
	raise := func(head, body string, neg bool) bool {
		want := rs.stratum(body)
		if neg {
			want++
		}
		if rs.stratum(head) >= want {
			return true
		}
		if want > len(rs.base.stratumOf)+len(rs.stratumOf)+1 {
			return false
		}
		rs.stratumOf[head] = want
		rs.numStrata = max(rs.numStrata, want+1)
		work = append(work, head)
		return true
	}
	for _, c := range added {
		for _, l := range c.Body {
			if !l.Atom.IsBuiltin() && !raise(c.Head.Pred, l.Atom.Pred, l.Negated) {
				return false
			}
		}
	}
	for len(work) > 0 {
		q := work[len(work)-1]
		work = work[:len(work)-1]
		for _, neg := range []bool{false, true} {
			err := rs.eachRef(q, neg, func(_ litRef, c Clause) error {
				if !raise(c.Head.Pred, q, neg) {
					return errStopEnum
				}
				return nil
			})
			if err != nil {
				return false
			}
		}
	}
	return true
}

// bump counts one more base assertion of a tuple of the finished model: every
// fact is in the fixpoint built over it.
func (inc *Incremental) bump(a Atom) error {
	k := a.Key()
	base, ok := inc.model.support(a.Pred, k)
	if !ok {
		return fmt.Errorf("datalog: %s is asserted but missing from the model: not the program's minimal model", a)
	}
	inc.model.setSupport(a.Pred, k, base+1)
	return nil
}

// Model returns the live model. Callers must treat it as read-only; it is
// invalidated (and remains correct) across ApplyClauses calls.
func (inc *Incremental) Model() *Store { return inc.model }

// Counts returns a snapshot of every tuple's base-assertion count, keyed by
// atom key (0: the tuple is only derived) — with the model, all the state the
// differential harness checks against a freshly built engine.
func (inc *Incremental) Counts() map[string]int { return inc.model.supports() }

// Rules returns the engine's rule multiset, in the order the rules joined it;
// callers must treat it as read-only.
func (inc *Incremental) Rules() []Clause { return inc.live() }

// Clone returns an independent engine. It shares the rule set outright — a
// rule delta on either side replaces its own pointer — and the model
// copy-on-write (Store.Clone): a delta applied to either engine writes only
// the relations it touches, each as a delta over the shared one, so cloning
// copies one pointer per relation and allocates the same whatever the
// model's size.
func (inc *Incremental) Clone() *Incremental {
	c := *inc
	c.model = inc.model.Clone()
	c.gov = nil
	return &c
}

// fireOn enumerates against v the firings of c whose literal lit — its head
// when lit is -1 — is the ground tuple d. It binds the literal to d in sub,
// runs solveBody on the rest of the body and undoes the binding, so one sub
// serves every (tuple × rule) pair of a phase; emit's argument is sub,
// borrowed until emit returns.
func (inc *Incremental) fireOn(c Clause, lit int, d Atom, sub term.Subst, v storeView, emit func(term.Subst) error) error {
	pattern := c.Head
	if lit >= 0 {
		pattern = c.Body[lit].Atom
	}
	if pattern.Pred != d.Pred {
		return nil
	}
	var tb [8]string
	trail, ok := term.UnifyAllTrail(pattern.Args, d.Args, sub, tb[:0])
	var err error
	if ok {
		err = solveBody(inc.gov, c, lit, sub, v, emit)
	}
	sub.Undo(trail)
	return err
}

// derivable reports whether some rule firing derives t against the live
// model, stopping at the first. sub is the phase's substitution (fireOn).
func (inc *Incremental) derivable(t Atom, sub term.Subst) (bool, error) {
	live := storeView{live: inc.model}
	err := inc.eachHead(t.Pred, func(_ int, c Clause) error {
		return inc.fireOn(c, -1, t, sub, live, func(term.Subst) error { return errStopEnum })
	})
	if errors.Is(err, errStopEnum) {
		return true, nil
	}
	return false, err
}

// lostHeads enumerates heads of stratum-s rule firings that existed in the
// pre-delta over-approximation and involved d — at a positive literal when
// neg is false (d was deleted), or at a negated literal when neg is true (d
// was added, killing the firing). sub is the phase's substitution (fireOn).
func (inc *Incremental) lostHeads(s int, d Atom, neg bool, v storeView, sub term.Subst, yield func(Atom) error) error {
	return inc.eachRef(d.Pred, neg, func(rf litRef, c Clause) error {
		if inc.stratum(c.Head.Pred) != s {
			return nil
		}
		return inc.fireOn(c, rf.lit, d, sub, v, func(sub term.Subst) error {
			return yield(c.Head.Apply(sub))
		})
	})
}

// fullFirings enumerates against v every firing of the rules of cs whose
// head is in stratum s: the whole contribution of a rule that joined or left
// the rule set.
func (inc *Incremental) fullFirings(s int, cs []Clause, v storeView, each func(Clause, term.Subst) error) error {
	for _, c := range cs {
		if inc.stratum(c.Head.Pred) != s {
			continue
		}
		err := solveBody(inc.gov, c, -1, term.Subst{}, v, func(sub term.Subst) error { return each(c, sub) })
		if err != nil {
			return err
		}
	}
	return nil
}

// deltaState is the bookkeeping shared by the phases of one delta.
type deltaState struct {
	added   map[string]map[string]Atom // pred -> key -> atom, net additions
	deleted map[string]map[string]Atom // pred -> key -> atom, net deletions
	grave   *Store                     // every tuple removed at any point
	addKeys map[string]bool            // keys of net-added atoms (negation masking)
	// DRed's work by predicate (DeltaResult.OverDeleted, ReDerived).
	overDeleted, reDerived map[string]int
	// The rule-set change, already in the engine's rules.
	addRules, delRules []Clause
}

func (d *deltaState) noteAdd(a Atom, k string) {
	m := d.added[a.Pred]
	if m == nil {
		m = map[string]Atom{}
		d.added[a.Pred] = m
	}
	m[k] = a
	d.addKeys[k] = true
}

func (d *deltaState) noteDel(a Atom, k string) {
	m := d.deleted[a.Pred]
	if m == nil {
		m = map[string]Atom{}
		d.deleted[a.Pred] = m
	}
	m[k] = a
}

// cancelDel clears a recorded deletion whose tuple came back (net change
// zero), reporting whether there was one.
func (d *deltaState) cancelDel(pred, k string) bool {
	m := d.deleted[pred]
	if m == nil {
		return false
	}
	if _, ok := m[k]; !ok {
		return false
	}
	delete(m, k)
	if len(m) == 0 {
		delete(d.deleted, pred)
	}
	return true
}

// ApplyClauses patches the model in place by a clause delta, bounded by ctx
// and inc.Limits, and reports the net membership change per predicate. Fact
// clauses are base assertions: dels retracts them (multiset semantics;
// retracting an absent assertion is a no-op), adds asserts new ones, and
// derived consequences are propagated stratum by stratum. Rule clauses change
// the rule set (ruleSet.edit): a rule of dels leaves with exactly the
// derivations its firings contributed, a rule of adds joins and fires. The
// next rule set is validated and its strata lifted before the model is
// touched: an
// unsafe or unstratifiable one is an error that leaves the engine as it was,
// and usable. On any later error the engine is poisoned (the model may be
// half-patched) and every later call fails; keep a Clone if you need to
// survive failed deltas.
func (inc *Incremental) ApplyClauses(ctx context.Context, adds, dels []Clause) (*DeltaResult, error) {
	if inc.broken {
		return nil, fmt.Errorf("datalog: incremental engine poisoned by an earlier failed delta")
	}
	var facts [2][]Atom
	var rules [2][]Clause
	for i, cs := range [2][]Clause{adds, dels} {
		for _, c := range cs {
			if c.IsFact() {
				facts[i] = append(facts[i], c.Head)
			} else {
				rules[i] = append(rules[i], c)
			}
		}
	}
	st := &deltaState{
		added:   map[string]map[string]Atom{},
		deleted: map[string]map[string]Atom{},
		grave:   NewStore(),
		addKeys: map[string]bool{},
	}
	if len(rules[0])+len(rules[1]) > 0 {
		next, removed, err := inc.ruleSet.edit(rules[0], rules[1])
		if err != nil {
			return nil, err // nothing touched yet: the engine stays usable
		}
		inc.ruleSet, st.addRules, st.delRules = next, rules[0], removed
	}
	inc.gov = resource.New(ctx, inc.Limits)
	res, err := inc.applyDelta(facts[0], facts[1], st)
	if err != nil {
		inc.broken = true
		return nil, err
	}
	res.RulesAdded, res.RulesRemoved = len(st.addRules), len(st.delRules)
	return res, nil
}

func (inc *Incremental) applyDelta(adds, dels []Atom, st *deltaState) (*DeltaResult, error) {
	// Phase 0: base-assertion bookkeeping. Deletions first, so a delta that
	// retracts and re-asserts the same atom nets out. A tuple that lost its
	// last base assertion leaves at once if no rule heads its predicate;
	// otherwise it seeds its stratum's deletion phase, which knows how to ask
	// whether the rules still derive it (a firing found here would prove
	// nothing in a recursive stratum: it may rest on the tuple itself).
	unbased := make([][]Atom, inc.numStrata)
	for _, d := range dels {
		if !d.IsGround() || d.IsBuiltin() {
			return nil, fmt.Errorf("datalog: delta retract of invalid atom %s", d)
		}
		k := d.Key()
		base, ok := inc.model.support(d.Pred, k)
		if !ok || base == 0 {
			continue // retracting an assertion that does not exist
		}
		inc.model.setSupport(d.Pred, k, base-1)
		if base > 1 {
			continue
		}
		if !inc.defines(d.Pred) {
			inc.removeTuple(d, k, st)
		} else {
			s := inc.stratum(d.Pred)
			unbased[s] = append(unbased[s], d)
		}
	}
	for _, a := range adds {
		if !a.IsGround() || a.IsBuiltin() {
			return nil, fmt.Errorf("datalog: delta assert of invalid atom %s", a)
		}
		k := a.Key()
		base, ok := inc.model.support(a.Pred, k)
		if !ok {
			if err := inc.insertTuple(a, k, st); err != nil {
				return nil, err
			}
		}
		inc.model.setSupport(a.Pred, k, base+1)
	}
	for s := 0; s < inc.numStrata; s++ {
		// A removed rule's firings are gone: their heads, enumerated against
		// the pre-delta view, seed the stratum's deletion phase beside the
		// tuples phase 0 left without a base assertion.
		lost := unbased[s]
		err := inc.fullFirings(s, st.delRules, storeView{live: inc.model, grave: st.grave, negSkip: st.addKeys}, func(c Clause, sub term.Subst) error {
			lost = append(lost, c.Head.Apply(sub))
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := inc.deletePhase(s, st, lost); err != nil {
			return nil, err
		}
		if err := inc.insertPhase(s, st); err != nil {
			return nil, err
		}
	}
	res := &DeltaResult{Changed: map[string]PredDelta{}, OverDeleted: st.overDeleted, ReDerived: st.reDerived}
	for pred, m := range st.added {
		pd := res.Changed[pred]
		pd.Added = byKey(m)
		res.Changed[pred] = pd
	}
	for pred, m := range st.deleted {
		pd := res.Changed[pred]
		pd.Deleted = byKey(m)
		res.Changed[pred] = pd
	}
	return res, nil
}

// byKey returns the atoms of m, a key -> atom map of deltaState's, sorted by
// key: the keys are m's own, so no comparison computes one.
func byKey(m map[string]Atom) []Atom {
	type keyed struct {
		k string
		a Atom
	}
	ps := make([]keyed, 0, len(m))
	for k, a := range m {
		ps = append(ps, keyed{k, a})
	}
	slices.SortFunc(ps, func(x, y keyed) int { return strings.Compare(x.k, y.k) })
	out := make([]Atom, len(ps))
	for i, p := range ps {
		out[i] = p.a
	}
	return out
}

// removeTuple takes a tuple — and with it its base count — out of the model
// and records the net deletion.
func (inc *Incremental) removeTuple(t Atom, k string, st *deltaState) {
	inc.model.Remove(t)
	st.grave.Insert(t) //nolint:errcheck // ground: was in the model
	if st.addKeys[k] {
		// Added earlier in this same delta: net change cancels.
		delete(st.addKeys, k)
		if m := st.added[t.Pred]; m != nil {
			delete(m, k)
			if len(m) == 0 {
				delete(st.added, t.Pred)
			}
		}
	} else {
		st.noteDel(t, k)
	}
}

// insertTuple puts a tuple into the model, with a zero base count for the
// caller to set, and records the net addition; a tuple returning after a
// same-delta deletion nets out instead.
func (inc *Incremental) insertTuple(t Atom, k string, st *deltaState) error {
	if _, err := inc.model.Insert(t); err != nil {
		return err
	}
	if err := inc.gov.Insert(approxAtomBytes(t)); err != nil {
		return err
	}
	if !st.cancelDel(t.Pred, k) {
		st.noteAdd(t, k)
	}
	return nil
}

// deletePhase is stratum s's one deletion phase, whatever its shape: DRed
// (delete-and-rederive). It over-deletes every tuple of s without a base
// assertion that lost a firing — through a tuple deleted below s or already
// over-deleted in it, through a tuple added below s at a negated literal, or
// as one of seeds, the stratum's own — then puts back each one the surviving
// model still derives. No tuple is kept on a firing found before the
// over-delete: in a recursive stratum that firing may rest on the tuple
// itself. So a tuple that keeps another firing costs extra: it is removed and
// put back, with whatever of s rests on it, each by its own derivable check.
// That stays inside s — insertTuple cancels the deletion recorded at
// over-delete time — and later strata see only the net change.
func (inc *Incremental) deletePhase(s int, st *deltaState, seeds []Atom) error {
	oldView := storeView{live: inc.model, grave: st.grave, negSkip: st.addKeys}
	sub := term.Subst{}
	overdeleted := map[string]Atom{}
	var queue []Atom
	for _, m := range st.deleted {
		for _, d := range m {
			queue = append(queue, d)
		}
	}
	onLost := func(h Atom) {
		k := h.Key()
		if base, ok := inc.model.support(h.Pred, k); !ok || base > 0 {
			return // gone already, or base-supported: stays
		}
		inc.removeTuple(h, k, st)
		overdeleted[k] = h
		queue = append(queue, h)
		st.overDeleted = count(st.overDeleted, h.Pred)
	}
	// Heads are buffered before processing: onLost mutates the model, and
	// removing tuples mid-enumeration would corrupt the store scan that
	// lostHeads is running.
	lost := func(d Atom, neg bool) error {
		var heads []Atom
		err := inc.lostHeads(s, d, neg, oldView, sub, func(h Atom) error {
			heads = append(heads, h)
			return nil
		})
		if err != nil {
			return err
		}
		for _, h := range heads {
			onLost(h)
		}
		return nil
	}
	for _, h := range seeds {
		onLost(h)
	}
	// Additions below the stratum kill firings through negated literals.
	for _, m := range st.added {
		for _, a := range m {
			if err := lost(a, true); err != nil {
				return err
			}
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if err := lost(d, false); err != nil {
			return err
		}
	}
	// Re-derive: any over-deleted tuple still derivable from the surviving
	// model (including additions already in place) comes back.
	for changed := true; changed; {
		changed = false
		keys := make([]string, 0, len(overdeleted))
		for k := range overdeleted {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			t := overdeleted[k]
			ok, err := inc.derivable(t, sub)
			if err != nil {
				return err
			}
			if ok {
				// insertTuple cancels the deletion recorded at over-delete
				// time, so the tuple's net change is zero.
				if err := inc.insertTuple(t, k, st); err != nil {
					return err
				}
				delete(overdeleted, k)
				st.reDerived = count(st.reDerived, t.Pred)
				changed = true
			}
		}
	}
	return nil
}

// count adds one to m[pred], making m at its first count.
func count(m map[string]int, pred string) map[string]int {
	if m == nil {
		m = map[string]int{}
	}
	m[pred]++
	return m
}

// insertPhase runs semi-naive delta propagation for the additions visible to
// stratum s, including firings enabled by deletions below through negated
// literals.
func (inc *Incremental) insertPhase(s int, st *deltaState) error {
	live := storeView{live: inc.model}
	sub := term.Subst{}
	var frontier []Atom
	for _, m := range st.added {
		for _, a := range m {
			frontier = append(frontier, a)
		}
	}
	emit := func(c Clause, sub term.Subst) error {
		head, err := headOf(c, sub)
		if err != nil {
			return err
		}
		if inc.model.Contains(head) {
			return nil
		}
		if err := inc.insertTuple(head, head.Key(), st); err != nil {
			return err
		}
		frontier = append(frontier, head)
		return nil
	}
	fire := func(d Atom, neg bool) error {
		return inc.eachRef(d.Pred, neg, func(rf litRef, c Clause) error {
			if inc.stratum(c.Head.Pred) != s {
				return nil
			}
			return inc.fireOn(c, rf.lit, d, sub, live, func(sub term.Subst) error { return emit(c, sub) })
		})
	}
	// Deletions below the stratum enable firings through negated literals;
	// they cannot cascade within the stratum (same-stratum negation is not
	// stratifiable), so one pass suffices.
	for _, m := range st.deleted {
		for _, d := range m {
			if err := fire(d, true); err != nil {
				return err
			}
		}
	}
	// An added rule fires once in full; what it derives joins the frontier.
	if err := inc.fullFirings(s, st.addRules, live, emit); err != nil {
		return err
	}
	for len(frontier) > 0 {
		d := frontier[0]
		frontier = frontier[1:]
		if err := fire(d, false); err != nil {
			return err
		}
	}
	return nil
}
