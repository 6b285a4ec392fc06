package analysis

import (
	"sort"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/term"
)

// Flow is the MLS information-flow analysis result for one MultiLog
// database: per-predicate classification bounds over the security
// lattice, plus the structured findings lint formats as ML005–ML008.
//
// The central abstraction is the *source set* of a predicate p: an
// over-approximation of every security label whose relation to the
// asker's clearance u can change a visible answer involving p. Under the
// reduction semantics those labels enter in exactly three ways:
//
//   - a Σ rule body's m/b-atom level l is statically guarded by l ⪯ u
//     (sigmaClause drops the instance otherwise), so body levels gate
//     *derivation*;
//   - every classification reaching a class position is guarded by
//     c ⪯ u (classGuard in rule bodies, match at query time), so class
//     constants gate *visibility* row by row;
//   - label constants in key/value positions can be laundered into class
//     positions by later rules, so any label-valued constant in a fact
//     or rule is tracked conservatively.
//
// Assertion levels of facts are deliberately NOT sources: a fact stored
// at level h never enters rel(p, l) for l ⋡ h, independently of u, so it
// cannot make a fixed-low-level query clearance-sensitive.
//
// A predicate is ClearanceIndependent when every source is dominated by
// every asserted level — then every guard involving u passes identically
// at all clearances, and answers to any fixed-level query at a
// universally dominated level are byte-equal across clearances and
// belief modes. The differential harness validates exactly that claim
// (internal/differential, RunFlowCampaign).
type Flow struct {
	Poset *lattice.Poset
	// Preds maps each MultiLog (m-)predicate to its flow info.
	Preds map[string]*FlowInfo
	// Downgrades lists ML005 sites: rules whose visible head depends on
	// higher-classified premises.
	Downgrades []DowngradeSite
	// ImplicitModes lists ML006 sites: plain m-atoms over mode-divergent
	// predicates.
	ImplicitModes []ModeSite
	// DependentQueries lists ML007 sites: fixed-level stored queries
	// whose answers can vary with the asker's clearance.
	DependentQueries []QuerySite
	// Unsatisfiable lists ML008 sites: rules no asserted clearance can
	// both fire and see.
	Unsatisfiable []UnsatSite
	// Converged is false only if the fixpoint hit its budget; claims are
	// then withheld (no predicate is reported clearance-independent).
	Converged bool
}

// FlowInfo is the flow analysis result for one m-predicate.
type FlowInfo struct {
	Pred string
	// Sources is the sorted over-approximated source set (see Flow). When
	// AllLabels is set a level variable or lattice-valued builtin
	// contaminated the cone and Sources is the whole label set.
	Sources   []lattice.Label
	AllLabels bool
	// HeadLevels lists the levels at which facts or rule heads assert the
	// predicate, sorted.
	HeadLevels []lattice.Label
	// Bound is the least upper bound of Sources when the lattice has one.
	Bound    lattice.Label
	HasBound bool
	// ClearanceIndependent claims answers to fixed-level queries at
	// universally dominated levels are identical at every clearance.
	ClearanceIndependent bool
	// ModeDivergent reports the predicate is asserted at two comparable
	// levels, so its fir/opt/cau answers can differ.
	ModeDivergent bool
}

// DowngradeSite is one ML005 finding.
type DowngradeSite struct {
	Clause    int // index into Database.Sigma
	Pos       datalog.Position
	Pred      string
	HeadLevel lattice.Label // effective visibility level of the head
	Source    lattice.Label // offending source not dominated by HeadLevel
	Via       string        // "" when the source is a direct body level/class; else the body predicate it flows through
}

// ModeSite is one ML006 finding.
type ModeSite struct {
	Clause int // index into Database.Sigma, or -1 when in a query
	Query  int // index into Database.Queries, or -1 when in a rule
	Pos    datalog.Position
	Pred   string
	Levels []lattice.Label // the divergent assertion levels
}

// QuerySite is one ML007 finding.
type QuerySite struct {
	Query  int
	Goal   int
	Pos    datalog.Position
	Pred   string
	Level  lattice.Label
	Source lattice.Label // a source not dominated by Level
}

// UnsatSite is one ML008 finding.
type UnsatSite struct {
	Clause int
	Pos    datalog.Position
	Pred   string
	Levels []lattice.Label // the levels no asserted clearance jointly dominates
}

// PredNames returns the analyzed m-predicate names, sorted.
func (f *Flow) PredNames() []string {
	names := make([]string, 0, len(f.Preds))
	for name := range f.Preds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// labelSet is the abstract value: a set of security labels.
type labelSet map[lattice.Label]bool

// Keys for the two predicate namespaces: m-predicates of Σ and classical
// predicates of Π/Λ (which may share names).
func mKey(pred string) string { return "m:" + pred }
func pKey(pred string) string { return "p:" + pred }

// latticeBuiltins are classical predicates whose extension is the
// security lattice itself; any label can flow out of them.
var latticeBuiltins = map[string]bool{"level": true, "order": true, "dominate": true}

// AnalyzeFlow runs the MLS information-flow analysis. The database must
// have a well-formed Λ (a valid poset); otherwise the error is returned
// and the caller should rely on the admissibility lint (ML004) instead.
func AnalyzeFlow(db *multilog.Database) (*Flow, error) {
	poset, err := db.Poset()
	if err != nil {
		return nil, err
	}
	f := &Flow{Poset: poset, Preds: map[string]*FlowInfo{}, Converged: true}
	labels := poset.Labels()
	all := labelSet{}
	for _, l := range labels {
		all[l] = true
	}
	isLabel := func(name string) bool { return poset.Has(lattice.Label(name)) }

	// Σ then Π, one transfer per clause, read in place: a copy of every
	// clause per analysis was most of what a write's re-lint allocated.
	clause := func(i int) (c *multilog.Clause, sigma bool) {
		if i < len(db.Sigma) {
			return &db.Sigma[i], true
		}
		return &db.Pi[i-len(db.Sigma)], false
	}

	// labelConsts collects label-valued constants in a term tree.
	var labelConsts func(t term.Term, into labelSet)
	labelConsts = func(t term.Term, into labelSet) {
		switch t.Kind() {
		case term.KindConst:
			if isLabel(t.Name()) {
				into[lattice.Label(t.Name())] = true
			}
		case term.KindCompound:
			for _, a := range t.Args() {
				labelConsts(a, into)
			}
		}
	}

	// goalKeyAndConsts returns the dependency key a body goal reads (or
	// "") and adds its immediate label constants / level effects to into.
	goalEffects := func(g multilog.Goal, into labelSet) (readKeys []string, levelVar bool) {
		switch g.Kind {
		case multilog.GoalM, multilog.GoalB:
			if g.M.Level.IsVar() {
				levelVar = true
			} else if g.M.Level.Kind() == term.KindConst && isLabel(g.M.Level.Name()) {
				into[lattice.Label(g.M.Level.Name())] = true
			}
			labelConsts(g.M.Key, into)
			labelConsts(g.M.Class, into)
			labelConsts(g.M.Value, into)
			readKeys = append(readKeys, mKey(g.M.Pred))
			if g.Kind == multilog.GoalB {
				switch g.Mode {
				case multilog.ModeFir, multilog.ModeOpt, multilog.ModeCau:
				default:
					// User-defined modes reduce to the bel/7 predicate in Π.
					readKeys = append(readKeys, pKey(multilog.UserBelPred))
				}
			}
		default:
			if latticeBuiltins[g.P.Pred] {
				for l := range all {
					into[l] = true
				}
				return readKeys, levelVar
			}
			for _, a := range g.P.Args {
				labelConsts(a, into)
			}
			if !g.P.IsBuiltin() {
				readKeys = append(readKeys, pKey(g.P.Pred))
			}
		}
		return readKeys, levelVar
	}

	reads := func(i int) []string {
		var out []string
		c, _ := clause(i)
		for _, g := range c.Body {
			keys, _ := goalEffects(g, labelSet{})
			out = append(out, keys...)
		}
		return out
	}
	transfer := func(i int, get func(string) labelSet) []Contribution[labelSet] {
		c, sigma := clause(i)
		srcs := labelSet{}
		var headKey string
		if sigma && (c.Head.Kind == multilog.GoalM || c.Head.Kind == multilog.GoalB) {
			headKey = mKey(c.Head.M.Pred)
			// The head's own assertion level is not a source, but every
			// other label constant in the head is carried into the
			// derived fact's terms.
			labelConsts(c.Head.M.Key, srcs)
			labelConsts(c.Head.M.Class, srcs)
			labelConsts(c.Head.M.Value, srcs)
			if c.Head.M.Level.IsVar() {
				// Level variables are grounded over every level; if the
				// variable escapes into a data position anywhere, any
				// label can flow. Blanket conservatively.
				for l := range all {
					srcs[l] = true
				}
			}
		} else {
			// Classical clause (Π) or Λ; Λ clauses are lattice facts and
			// are covered by latticeBuiltins on the read side.
			headKey = pKey(c.Head.P.Pred)
			for _, a := range c.Head.P.Args {
				labelConsts(a, srcs)
			}
		}
		for _, g := range c.Body {
			keys, levelVar := goalEffects(g, srcs)
			if levelVar {
				for l := range all {
					srcs[l] = true
				}
			}
			for _, k := range keys {
				for l := range get(k) {
					srcs[l] = true
				}
			}
		}
		return []Contribution[labelSet]{{Key: headKey, Value: srcs}}
	}

	solver := Solver[labelSet]{
		Bottom: func(string) labelSet { return labelSet{} },
		Join: func(cur, in labelSet) (labelSet, bool) {
			grew := false
			for l := range in {
				if !cur[l] {
					cur[l] = true
					grew = true
				}
			}
			return cur, grew
		},
	}
	values, converged := solver.Solve(len(db.Sigma)+len(db.Pi), reads, transfer, nil)
	f.Converged = converged

	// Universal levels: dominated by every asserted level. Sources inside
	// this set can never flip a guard between two clearances.
	universal := labelSet{}
	for _, l := range labels {
		ok := true
		for _, u := range labels {
			if !poset.Dominates(u, l) {
				ok = false
				break
			}
		}
		if ok {
			universal[l] = true
		}
	}

	// Per-predicate info.
	headLevels := map[string]labelSet{}
	for _, c := range db.Sigma {
		if c.Head.Kind != multilog.GoalM {
			continue
		}
		hl := headLevels[c.Head.M.Pred]
		if hl == nil {
			hl = labelSet{}
			headLevels[c.Head.M.Pred] = hl
		}
		if c.Head.M.Level.IsVar() {
			for l := range all {
				hl[l] = true
			}
		} else if c.Head.M.Level.Kind() == term.KindConst && isLabel(c.Head.M.Level.Name()) {
			hl[lattice.Label(c.Head.M.Level.Name())] = true
		}
	}
	// Queries can mention predicates Σ never asserts.
	for _, q := range db.Queries {
		for _, g := range q {
			if g.Kind == multilog.GoalM || g.Kind == multilog.GoalB {
				if headLevels[g.M.Pred] == nil {
					headLevels[g.M.Pred] = labelSet{}
				}
			}
		}
	}

	for pred, hl := range headLevels {
		srcs := values[mKey(pred)]
		info := &FlowInfo{Pred: pred}
		info.AllLabels = len(srcs) == len(all) && len(all) > 0
		info.Sources = sortedLabels(srcs)
		info.HeadLevels = sortedLabels(hl)
		if len(info.Sources) > 0 {
			info.Bound, info.HasBound = poset.LubAll(info.Sources)
		}
		indep := converged
		for l := range srcs {
			if !universal[l] {
				indep = false
				break
			}
		}
		info.ClearanceIndependent = indep
		info.ModeDivergent = divergent(poset, info.HeadLevels)
		f.Preds[pred] = info
	}

	f.findSites(db, values, all)
	sortSites(f)
	return f, nil
}

// divergent reports whether two distinct comparable levels both assert
// the predicate — the shape under which firm, optimistic and cautious
// beliefs at the higher level can disagree (opt inherits the lower
// level's cell, cau suppresses it when a dominating classification
// exists, fir sees neither).
func divergent(poset *lattice.Poset, levels []lattice.Label) bool {
	for i, a := range levels {
		for _, b := range levels[i+1:] {
			if a != b && (poset.Dominates(a, b) || poset.Dominates(b, a)) {
				return true
			}
		}
	}
	return false
}

// findSites derives the ML005-ML008 finding sites from the solved source
// sets.
func (f *Flow) findSites(db *multilog.Database, values map[string]labelSet, all labelSet) {
	poset := f.Poset
	constLabel := func(t term.Term) (lattice.Label, bool) {
		if t.Kind() == term.KindConst && poset.Has(lattice.Label(t.Name())) {
			return lattice.Label(t.Name()), true
		}
		return "", false
	}

	for ci, c := range db.Sigma {
		if c.Head.Kind != multilog.GoalM || c.IsFact() {
			continue // ML003 covers ground facts; rules are the channel shape
		}
		headLevel, ok := constLabel(c.Head.M.Level)
		if !ok {
			continue // level-variable heads assert at every level; no fixed target to downgrade to
		}
		// Effective visibility level: a subject needs u ⪰ level and
		// u ⪰ class to see the derived row, so the head's ground class
		// raises the bar when the lattice can join them.
		effLevel := headLevel
		if hc, ok := constLabel(c.Head.M.Class); ok {
			if lub, ok := poset.Lub(headLevel, hc); ok {
				effLevel = lub
			}
		}

		// One site per (rule, source): a rule reading an s-level atom over
		// an s-sourced predicate is one channel, not two. Direct sites win
		// over via-sites because the body's own labels are reported first.
		seen := map[lattice.Label]bool{}
		addDowngrade := func(src lattice.Label, via string) {
			if poset.Dominates(effLevel, src) || seen[src] {
				return
			}
			seen[src] = true
			f.Downgrades = append(f.Downgrades, DowngradeSite{
				Clause: ci, Pos: c.Pos(), Pred: c.Head.M.Pred,
				HeadLevel: effLevel, Source: src, Via: via,
			})
		}

		var bodyLevels []lattice.Label
		levelled := true
		for _, g := range c.Body {
			switch g.Kind {
			case multilog.GoalM, multilog.GoalB:
				if l, ok := constLabel(g.M.Level); ok {
					bodyLevels = append(bodyLevels, l)
					addDowngrade(l, "")
				} else {
					levelled = false
				}
				if cl, ok := constLabel(g.M.Class); ok {
					bodyLevels = append(bodyLevels, cl)
					addDowngrade(cl, "")
				}
				for src := range values[mKey(g.M.Pred)] {
					addDowngrade(src, g.M.Pred)
				}
				// ML006: a plain m-atom reads raw visibility — the firm
				// mode in disguise — over a predicate whose modes diverge.
				if g.Kind == multilog.GoalM {
					if info := f.Preds[g.M.Pred]; info != nil && info.ModeDivergent {
						f.ImplicitModes = append(f.ImplicitModes, ModeSite{
							Clause: ci, Query: -1, Pos: goalPos(g, c.Pos()),
							Pred: g.M.Pred, Levels: info.HeadLevels,
						})
					}
				}
			}
		}

		// ML008: some asserted level must dominate every body level plus
		// the head's effective level, or no clearance can both fire the
		// rule and see its result.
		if levelled {
			needed := append([]lattice.Label{effLevel}, bodyLevels...)
			satisfiable := false
			for l := range all {
				ok := true
				for _, n := range needed {
					if !poset.Dominates(l, n) {
						ok = false
						break
					}
				}
				if ok {
					satisfiable = true
					break
				}
			}
			if !satisfiable {
				f.Unsatisfiable = append(f.Unsatisfiable, UnsatSite{
					Clause: ci, Pos: c.Pos(), Pred: c.Head.M.Pred,
					Levels: dedupeLabels(needed),
				})
			}
		}
	}

	// Query sites: ML006 and ML007 over stored queries.
	for qi, q := range db.Queries {
		for gi, g := range q {
			if g.Kind != multilog.GoalM && g.Kind != multilog.GoalB {
				continue
			}
			info := f.Preds[g.M.Pred]
			if g.Kind == multilog.GoalM && info != nil && info.ModeDivergent {
				f.ImplicitModes = append(f.ImplicitModes, ModeSite{
					Clause: -1, Query: qi, Pos: g.Pos,
					Pred: g.M.Pred, Levels: info.HeadLevels,
				})
			}
			l, ok := constLabel(g.M.Level)
			if !ok {
				continue // variable-level queries are clearance-scoped by design
			}
			for _, src := range sortedLabels(values[mKey(g.M.Pred)]) {
				if !poset.Dominates(l, src) {
					f.DependentQueries = append(f.DependentQueries, QuerySite{
						Query: qi, Goal: gi, Pos: g.Pos,
						Pred: g.M.Pred, Level: l, Source: src,
					})
					break // one offending source explains the finding
				}
			}
		}
	}
}

// goalPos prefers the goal's own position, falling back to the clause's.
func goalPos(g multilog.Goal, fallback datalog.Position) datalog.Position {
	if g.Pos.Line != 0 {
		return g.Pos
	}
	return fallback
}

func sortedLabels(s labelSet) []lattice.Label {
	out := make([]lattice.Label, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedupeLabels(in []lattice.Label) []lattice.Label {
	seen := labelSet{}
	var out []lattice.Label
	for _, l := range in {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortSites makes every finding list deterministic.
func sortSites(f *Flow) {
	sort.Slice(f.Downgrades, func(i, j int) bool {
		a, b := f.Downgrades[i], f.Downgrades[j]
		if a.Clause != b.Clause {
			return a.Clause < b.Clause
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Via < b.Via
	})
	sort.Slice(f.ImplicitModes, func(i, j int) bool {
		a, b := f.ImplicitModes[i], f.ImplicitModes[j]
		if a.Clause != b.Clause {
			return a.Clause < b.Clause
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Pred < b.Pred
	})
	sort.Slice(f.DependentQueries, func(i, j int) bool {
		a, b := f.DependentQueries[i], f.DependentQueries[j]
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		return a.Goal < b.Goal
	})
	sort.Slice(f.Unsatisfiable, func(i, j int) bool {
		return f.Unsatisfiable[i].Clause < f.Unsatisfiable[j].Clause
	})
}
