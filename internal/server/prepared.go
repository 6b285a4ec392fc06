package server

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/multilog"
	"repro/internal/resource"
	"repro/internal/term"
)

// preparedProgram is one loaded MultiLog database behind a copy-on-write
// snapshot: the hot path (queries) takes a read lock only long enough to
// grab the current *snapshot pointer, then evaluates against that snapshot
// with no locks held; the cold path (assert/retract) builds a fresh
// snapshot over the next version of the database (multilog.Version.Write:
// the written clauses and a delta of O(√|Σ|) copied, Σ itself shared) and
// swaps the pointer. In-flight queries keep answering from the snapshot they
// started on — their answers are tagged (and cached) with that snapshot's
// epoch, so they can never be confused with post-update state.
type preparedProgram struct {
	name   string
	limits resource.Limits // prepare/advance budget, from Config.Limits

	mu   sync.RWMutex // guards snap
	snap *snapshot

	upMu    sync.Mutex // serializes updates (write → lint → advance → swap → cache)
	updates atomic.Int64

	cache *resultCache // the server's, patched by each write under upMu; nil once replaced

	advMu sync.Mutex   // guards adv
	adv   AdvanceTally // how committed writes carried the warm reductions
}

// snapshot is one immutable program version. The database version, its
// poset and the prepared reductions are never modified after publication;
// the reductions and views maps alone grow lazily under their own lock
// (building the reduction at a serving level the first time a session at a
// clearance it serves queries). The flat database is materialized only for
// what reads all of it — a cold build, a checkpoint, /v1/lint, the lint of a
// Π retract that can break a Σ clause — once per version.
//
// A clearance u is served from the reduction at its serving level: while
// every clause of the program is a multilog.MonotoneClause, the first
// maximal level of the lattice that dominates u, read with u's guards
// (multilog.Reduction.View), which answers as u's own reduction would; while
// one is not, u itself.
type snapshot struct {
	epoch uint64
	db    *multilog.Version
	poset *lattice.Poset
	tops  map[lattice.Label]lattice.Label // per clearance, the first maximal level above it; the lattice's, shared by every snapshot
	// nonMonotone counts the clauses of db that are not MonotoneClause.
	nonMonotone int

	redMu      sync.RWMutex
	reductions map[lattice.Label]*multilog.Reduction // by serving level
	views      map[lattice.Label]*multilog.Reduction // by clearance: its serving level's reduction, viewed at it
	building   map[lattice.Label]chan struct{}       // cold builds in flight, by serving level, each closed when it ends
}

// newPrepared parses, lints and prepares a program at epoch: 1 for a load,
// and for a checkpointed program the epoch it had when the checkpoint was
// cut, so epochs never regress across a restart. Lint findings of severity
// Error reject the program with a *LintError; warnings are returned for the
// caller to log.
func newPrepared(name, src string, epoch uint64, prepLimits resource.Limits) (*preparedProgram, lint.Diagnostics, error) {
	db, err := multilog.Parse(src)
	if err != nil {
		return nil, nil, &LintError{Name: name, Findings: lint.FromParseError(name, err).String()}
	}
	diags := lint.MultiLog(db, lint.Options{File: name})
	if diags.HasErrors() {
		return nil, diags, &LintError{Name: name, Findings: diags.String()}
	}
	// The poset is computed (and admissibility checked) up front so that
	// later concurrent Reduce calls only read the cache.
	if err := db.CheckAdmissible(); err != nil {
		return nil, diags, err
	}
	poset, err := db.Poset()
	if err != nil {
		return nil, diags, err
	}
	return &preparedProgram{name: name, limits: prepLimits, snap: newSnapshot(epoch, db, poset)}, diags, nil
}

// newSnapshot publishes a database's first version over its security
// lattice, finding each clearance's maximal level above it once.
func newSnapshot(epoch uint64, db *multilog.Database, poset *lattice.Poset) *snapshot {
	tops := map[lattice.Label]lattice.Label{}
	for _, u := range poset.Labels() {
		for _, top := range poset.Maximal() {
			if poset.Dominates(top, u) {
				tops[u] = top
				break
			}
		}
	}
	first := &snapshot{poset: poset, tops: tops}
	return first.next(epoch, multilog.NewVersion(db), nonMonotone(db.Sigma, poset)+nonMonotone(db.Pi, poset))
}

// nonMonotone counts the clauses of cs that multilog.MonotoneClause rejects.
func nonMonotone(cs []multilog.Clause, poset *lattice.Poset) int {
	n := 0
	for _, c := range cs {
		if !multilog.MonotoneClause(c, poset) {
			n++
		}
	}
	return n
}

// next publishes a database version with nonMono non-monotone clauses over
// s's lattice.
func (s *snapshot) next(epoch uint64, db *multilog.Version, nonMono int) *snapshot {
	return &snapshot{epoch: epoch, db: db, poset: s.poset, tops: s.tops, nonMonotone: nonMono,
		reductions: map[lattice.Label]*multilog.Reduction{},
		views:      map[lattice.Label]*multilog.Reduction{},
		building:   map[lattice.Label]chan struct{}{}}
}

// serving is the level whose reduction serves clearance u.
func (s *snapshot) serving(u lattice.Label) lattice.Label {
	if s.nonMonotone > 0 {
		return u
	}
	return s.tops[u]
}

// current returns the live snapshot.
func (p *preparedProgram) current() *snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.snap
}

// reductionAt returns the snapshot's prepared reduction for one clearance:
// the reduction at its serving level, viewed at it — made once per snapshot
// and clearance.
func (s *snapshot) reductionAt(ctx context.Context, u lattice.Label, limits resource.Limits) (*multilog.Reduction, error) {
	s.redMu.RLock()
	view := s.views[u]
	s.redMu.RUnlock()
	if view != nil {
		return view, nil
	}
	red, err := s.preparedAt(ctx, s.serving(u), limits)
	if err == nil {
		view, err = red.View(u)
	}
	if err != nil {
		return nil, err
	}
	s.redMu.Lock()
	defer s.redMu.Unlock()
	if s.views[u] == nil {
		s.views[u] = view
	}
	return s.views[u], nil
}

// preparedAt returns the snapshot's prepared reduction at a serving level,
// building it on first use: Reduce plus an eager model build under limits (a
// hostile program cannot wedge the first query at a level forever) in the
// compiled engine, or the interpreter for programs the compiler declines
// (compile.PrepareReduction). Writes carry the reduction forward as deltas
// from then on (advanceReductions): a serving level is built once per load,
// or again after a write dropped it.
//
// The build runs outside redMu, behind one in-flight entry per level: a
// second caller for that level waits for it (and builds in its turn if it
// failed: that caller's deadline is not this one's); nothing else waits.
func (s *snapshot) preparedAt(ctx context.Context, u lattice.Label, limits resource.Limits) (*multilog.Reduction, error) {
	var red *multilog.Reduction
	var built chan struct{}
	for red == nil && built == nil {
		s.redMu.Lock()
		red = s.reductions[u]
		inflight := s.building[u]
		if red == nil && inflight == nil {
			built = make(chan struct{})
			s.building[u] = built
		}
		s.redMu.Unlock()
		if red == nil && inflight != nil {
			select {
			case <-inflight:
			case <-ctx.Done():
				return nil, resource.New(ctx, limits).Check()
			}
		}
	}
	if red != nil {
		return red, nil
	}
	red, err := multilog.Reduce(s.db.Database(), u)
	if err == nil {
		_, err = compile.PrepareReduction(ctx, red, compile.Options{Limits: limits})
	}
	s.redMu.Lock()
	delete(s.building, u)
	if err == nil {
		s.reductions[u] = red
	}
	s.redMu.Unlock()
	close(built)
	if err != nil {
		return nil, err
	}
	return red, nil
}

// warm reports whether the reduction serving the clearance is built — the
// admission controller prices a match-only read far below a first query that
// must pay the reduction build.
func (s *snapshot) warm(u lattice.Label) bool {
	s.redMu.RLock()
	defer s.redMu.RUnlock()
	return s.reductions[s.serving(u)] != nil
}

// stats snapshots the program's counters.
func (p *preparedProgram) stats() DBStats {
	s := p.current()
	s.redMu.RLock()
	nred := len(s.reductions)
	s.redMu.RUnlock()
	st := DBStats{Epoch: s.epoch, Reductions: nred, Updates: p.updates.Load()}
	st.Lambda, st.Sigma, st.Pi = s.db.Counts()
	p.advMu.Lock()
	st.add(p.adv) // a copy: the reasons map is p's
	p.advMu.Unlock()
	return st
}

// update applies an assert or retract on behalf of a session cleared at
// clearance. src is MultiLog source holding Σ and/or Π clauses; Λ clauses
// and stored queries are rejected (the lattice and the query set are fixed
// at load). Write authorization is value-based MLS: every ground security
// level and classification mentioned by the clauses must be dominated by
// the subject's clearance — you cannot write (or remove) data you cannot
// see. The write derives the next database version (multilog.Version.Write),
// which copies what it changes, not Σ. Before the swap the write is checked
// by the linter's Error passes (lint.MultiLogWrite), judged in the version's
// Λ and Π: the Σ clauses it adds and, when it writes Π, Λ, Π and the stored
// queries too. Σ is read only by a Π retract that leaves a predicate
// undefined — whether a Σ body reads it, through the version's index — and
// materialized only when the retract removes a bel/7 clause or undefines a
// predicate a Σ body reads.
// Every published program is Error-free, so that verdict is the full lint's,
// and a program the linter rejects never becomes an epoch. The new snapshot
// keeps the old one's lattice, which no write can change.
//
// It returns the new epoch (unchanged when nothing changed), how many
// clauses were added or removed, and an invalidation saying, per clearance
// the write advanced, what changed there. After the swap, still inside the
// critical section, the write reaches p.cache, in epoch order.
//
// commit, when non-nil, runs inside the critical section after the new
// snapshot is built (post-lint) and before it is swapped in: the server
// hangs its WAL append here, making the update durable strictly before it
// is visible, in the exact order snapshots are published. A commit error
// aborts the update with nothing swapped.
//
// ctx governs the critical section: it bounds the advance of every warm
// reduction, and a write whose ctx is done before commit is abandoned with
// epoch, snapshot and log untouched.
func (p *preparedProgram) update(ctx context.Context, src string, clearance lattice.Label, retract bool, commit func() error) (uint64, int, invalidation, error) {
	none := invalidation{}
	delta, err := multilog.Parse(src)
	if err != nil {
		return 0, 0, none, fmt.Errorf("parse: %w", err)
	}
	if len(delta.Lambda) > 0 {
		return 0, 0, none, fmt.Errorf("server: the security lattice is fixed at load; Λ clauses cannot be asserted or retracted")
	}
	if len(delta.Queries) > 0 {
		return 0, 0, none, fmt.Errorf("server: stored queries are fixed at load; send queries to /v1/query")
	}
	deltaClauses := append(append([]multilog.Clause{}, delta.Sigma...), delta.Pi...)
	if len(deltaClauses) == 0 {
		return 0, 0, none, fmt.Errorf("server: no clauses to apply")
	}

	p.upMu.Lock()
	defer p.upMu.Unlock()
	cur := p.current()

	for _, c := range delta.Sigma {
		if err := authorizeClause(c, cur.poset, clearance, retract); err != nil {
			return 0, 0, none, err
		}
	}

	var added, retracted []multilog.Clause
	if retract {
		retracted = deltaClauses
	} else {
		added = deltaClauses
	}
	next, removed, err := cur.db.Write(added, retracted)
	if err != nil {
		return 0, 0, none, err
	}
	if next == cur.db {
		return cur.epoch, 0, none, nil
	}

	if diags := lint.MultiLogWrite(next, added, removed, lint.Options{File: p.name}); len(diags) > 0 {
		return 0, 0, none, &LintError{Name: p.name, Findings: diags.String()}
	}
	nonMono := cur.nonMonotone + nonMonotone(added, cur.poset) - nonMonotone(removed, cur.poset)
	snap := cur.next(cur.epoch+1, next, nonMono)
	inv := p.advanceReductions(ctx, cur, snap, added, removed)
	if ctx.Err() != nil {
		return 0, 0, none, fmt.Errorf("server: update abandoned before commit: %w: %v", resource.ErrCanceled, context.Cause(ctx))
	}
	if commit != nil {
		if err := commit(); err != nil {
			return 0, 0, none, err
		}
	}
	p.mu.Lock()
	p.snap = snap
	p.mu.Unlock()
	if p.cache != nil {
		inv.dropped, inv.patched = p.cache.Invalidate(p.name, snap.epoch, inv.changed)
	}
	p.updates.Add(1)
	p.advMu.Lock()
	p.adv.add(inv.AdvanceTally)
	p.advMu.Unlock()
	return snap.epoch, len(added) + len(removed), inv, nil
}

// invalidation says what a committed update changed: for each clearance
// whose serving level it advanced, and which that level serves before and
// after the write, the advance's report — the translated relations whose
// tuples changed there, and those tuples. A clearance it did not advance —
// cold, dropped, or served from another level than before — is absent:
// anything cached there may have changed. dropped and patched count the cache
// entries the write dropped and patched.
type invalidation struct {
	changed          map[lattice.Label]multilog.DeltaReport
	dropped, patched int
	AdvanceTally     // of the prepared reductions, into the new snapshot
}

// changedPreds is the sorted union of the relations changed at every
// advanced clearance.
func (inv invalidation) changedPreds() []string {
	var out []string
	for _, rep := range inv.changed {
		out = append(out, rep.ChangedPreds...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func (t *AdvanceTally) add(o AdvanceTally) {
	t.AdvanceIncremental += o.AdvanceIncremental
	t.AdvanceAdopted += o.AdvanceAdopted
	for reason, n := range o.AdvanceDropped {
		if t.AdvanceDropped == nil {
			t.AdvanceDropped = map[string]int64{}
		}
		t.AdvanceDropped[reason] += n
	}
}

// String renders the tally for a write's log line and the REPL's \stats:
// "4 incremental (4 adopted)", "1 incremental, 3 dropped (delta-failed 3)".
func (t AdvanceTally) String() string {
	out := fmt.Sprintf("%d incremental", t.AdvanceIncremental)
	if t.AdvanceAdopted > 0 {
		out += fmt.Sprintf(" (%d adopted)", t.AdvanceAdopted)
	}
	var reasons []string
	var total int64
	for reason, n := range t.AdvanceDropped {
		reasons = append(reasons, fmt.Sprintf("%s %d", reason, n))
		total += n
	}
	if total == 0 {
		return out
	}
	sort.Strings(reasons)
	return fmt.Sprintf("%s, %d dropped (%s)", out, total, strings.Join(reasons, ", "))
}

// advanceReductions carries cur's prepared reductions into the new snapshot
// (multilog.Advance): the write's clauses, facts or rules, are translated
// per warm serving level and applied as a clause delta to a copy-on-write
// clone of that level's engine — made, at the first write after a cold build,
// over a clone of the compiled model (datalog.Adopt) — so the write costs what
// its clauses derive and the relations that touches. No model is re-derived here:
// a reduction that fails to advance (resource limits, cancellation) is
// dropped, by reason, and the next query at its clearance builds it, under
// that reader's admission ticket and outside the update lock. A reduction at
// a level that serves no longer — a write made the program monotone, and a
// maximal level above serves it now — is dropped too. An advance is
// handed no database: only QueryContext's lazy registration would read it,
// and the server queries through QueryPrepared, so no write materializes
// one. The returned invalidation records what each advance changed.
func (p *preparedProgram) advanceReductions(ctx context.Context, cur, snap *snapshot, added, removed []multilog.Clause) invalidation {
	cur.redMu.RLock()
	olds := maps.Clone(cur.reductions)
	cur.redMu.RUnlock()
	inv := invalidation{changed: make(map[lattice.Label]multilog.DeltaReport, len(snap.tops))}
	for lvl, old := range olds {
		if snap.serving(lvl) != lvl {
			inv.add(AdvanceTally{AdvanceDropped: map[string]int64{"unserved": 1}})
			continue
		}
		red, rep, err := old.Advance(ctx, nil, added, removed, p.limits)
		if err != nil {
			inv.add(AdvanceTally{AdvanceDropped: map[string]int64{string(rep.Reason): 1}})
			continue
		}
		inv.AdvanceIncremental++
		if rep.Adopted {
			inv.AdvanceAdopted++
		}
		snap.reductions[lvl] = red
		for u := range snap.tops {
			if cur.serving(u) == lvl && snap.serving(u) == lvl {
				inv.changed[u] = rep
			}
		}
	}
	return inv
}

// authorizeClause enforces the write rule on one Σ clause: every ground
// level or classification it mentions must be dominated by the clearance.
func authorizeClause(c multilog.Clause, poset *lattice.Poset, clearance lattice.Label, retract bool) error {
	action := "assert"
	if retract {
		action = "retract"
	}
	goals := append([]multilog.Goal{c.Head}, c.Body...)
	for _, g := range goals {
		if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
			continue
		}
		for _, t := range []term.Term{g.M.Level, g.M.Class} {
			if t.Kind() != term.KindConst {
				continue // variables range over levels the evaluation guards
			}
			lbl := lattice.Label(t.Name())
			if !poset.Has(lbl) {
				continue // unknown constants are caught by lint/admissibility
			}
			if !poset.Dominates(clearance, lbl) {
				return &DeniedError{Clearance: string(clearance), Level: string(lbl), Action: action}
			}
		}
	}
	return nil
}
