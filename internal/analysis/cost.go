package analysis

import (
	"sort"

	"repro/internal/datalog"
)

// MaxEstimate saturates size arithmetic; estimates are heuristics, and a
// saturated product already means "too big to join naively".
const MaxEstimate int64 = 1 << 40

// DefaultFanoutThreshold is the estimated-rows bound above which a rule
// body is flagged (DL011).
const DefaultFanoutThreshold int64 = 1000

// CostOptions tunes the cost analysis.
type CostOptions struct {
	// FanoutThreshold overrides DefaultFanoutThreshold; <= 0 means the
	// default.
	FanoutThreshold int64
}

// Cost is the result of the cost/shape analysis.
type Cost struct {
	// Sizes estimates each predicate's relation size: the max of its fact
	// count and its rules' first-order fan-out. "First-order" means one
	// application per rule — literals recursive with the head contribute
	// their base (non-recursive) size, so the estimate describes one join
	// pass, not the fixpoint closure, and stays finite without caps.
	Sizes map[string]int64
	// Cartesian lists rule bodies whose positive literals split into
	// variable-disjoint groups (DL009).
	Cartesian []CartesianSite
	// Fanout lists rule bodies whose estimated join size reaches the
	// threshold (DL011).
	Fanout []FanoutSite
}

// CartesianSite locates one cartesian-product rule body.
type CartesianSite struct {
	Clause int
	Pos    datalog.Position
	Head   string
	// Groups are the variable-disjoint partitions of the positive body
	// literals, rendered, each group joined with no shared variable
	// against the others.
	Groups [][]string
}

// NonlinearSite locates one nonlinearly recursive rule.
type NonlinearSite struct {
	Clause int
	Pos    datalog.Position
	Head   string
	// Recursive lists the body literals in the head's component.
	Recursive []string
}

// FanoutSite locates one wide-join rule body.
type FanoutSite struct {
	Clause   int
	Pos      datalog.Position
	Head     string
	Estimate int64
}

// AnalyzeCost runs the cost/shape analysis over a classical program.
func AnalyzeCost(p *datalog.Program, opts CostOptions) *Cost {
	threshold := opts.FanoutThreshold
	if threshold <= 0 {
		threshold = DefaultFanoutThreshold
	}
	cost := &Cost{Sizes: map[string]int64{}}

	facts := map[string]int64{}
	var preds []string
	seen := map[string]bool{}
	touch := func(a datalog.Atom) {
		if !a.IsBuiltin() && !seen[a.Pred] {
			seen[a.Pred] = true
			preds = append(preds, a.Pred)
		}
	}
	for _, c := range p.Clauses {
		touch(c.Head)
		if c.IsFact() {
			facts[c.Head.Pred]++
		}
		for _, l := range c.Body {
			touch(l.Atom)
		}
	}
	sort.Strings(preds)

	succ := map[string][]string{}
	for _, e := range datalog.DependencyGraph(p) {
		succ[e.From] = append(succ[e.From], e.To)
	}
	comp := SCCs(preds, succ)

	// Size fixpoint on the framework: join is max (idempotent, monotone),
	// and recursion cannot spiral because a body literal in the head's
	// own component contributes its base size, not its current estimate —
	// the abstract domain is the finite set of first-order products.
	base := func(pred string) int64 {
		if n := facts[pred]; n > 0 {
			return n
		}
		return 1
	}
	ruleEstimate := func(c datalog.Clause, get func(string) int64) int64 {
		est := int64(1)
		for _, l := range c.Body {
			if l.Atom.IsBuiltin() || l.Negated {
				continue // filters never grow the join
			}
			sz := get(l.Atom.Pred)
			if bc, ok := comp[l.Atom.Pred]; ok && bc == comp[c.Head.Pred] {
				sz = base(l.Atom.Pred)
			}
			if sz < 1 {
				sz = 1
			}
			if est > MaxEstimate/sz {
				return MaxEstimate
			}
			est *= sz
		}
		return est
	}
	solver := Solver[int64]{
		Bottom: func(string) int64 { return 0 },
		Join: func(cur, in int64) (int64, bool) {
			if in > cur {
				return in, true
			}
			return cur, false
		},
	}
	reads := func(i int) []string {
		var out []string
		for _, l := range p.Clauses[i].Body {
			if !l.Atom.IsBuiltin() {
				out = append(out, l.Atom.Pred)
			}
		}
		return out
	}
	transfer := func(i int, get func(string) int64) []Contribution[int64] {
		c := p.Clauses[i]
		if c.IsFact() {
			return []Contribution[int64]{{Key: c.Head.Pred, Value: facts[c.Head.Pred]}}
		}
		return []Contribution[int64]{{Key: c.Head.Pred, Value: ruleEstimate(c, get)}}
	}
	sizes, _ := solver.Solve(len(p.Clauses), reads, transfer, nil)
	for _, pred := range preds {
		cost.Sizes[pred] = sizes[pred]
	}

	// Shape findings per rule.
	for ci, c := range p.Clauses {
		if c.IsFact() {
			continue
		}
		if groups := cartesianGroups(c); len(groups) >= 2 {
			cost.Cartesian = append(cost.Cartesian, CartesianSite{
				Clause: ci, Pos: c.Head.Pos, Head: c.Head.Pred, Groups: groups,
			})
		}
		if est := ruleEstimate(c, func(pred string) int64 { return sizes[pred] }); est >= threshold {
			cost.Fanout = append(cost.Fanout, FanoutSite{
				Clause: ci, Pos: c.Head.Pos, Head: c.Head.Pred, Estimate: est,
			})
		}
	}
	return cost
}

// Nonlinear lists the rules with two or more body literals in the head's
// recursive component (DL010). Lint reports them; the compiler routes a
// program with any of them to the interpreter.
func Nonlinear(p *datalog.Program) []NonlinearSite {
	var heads []string
	succ := map[string][]string{}
	for _, e := range datalog.DependencyGraph(p) {
		if _, ok := succ[e.From]; !ok {
			heads = append(heads, e.From)
		}
		succ[e.From] = append(succ[e.From], e.To)
	}
	comp := SCCs(heads, succ)
	var sites []NonlinearSite
	for ci, c := range p.Clauses {
		var rec []string
		for _, l := range c.Body {
			if l.Atom.IsBuiltin() {
				continue
			}
			if bc, ok := comp[l.Atom.Pred]; ok && bc == comp[c.Head.Pred] {
				rec = append(rec, l.String())
			}
		}
		if len(rec) >= 2 {
			sites = append(sites, NonlinearSite{
				Clause: ci, Pos: c.Head.Pos, Head: c.Head.Pred, Recursive: rec,
			})
		}
	}
	return sites
}

// cartesianGroups partitions the positive, variable-carrying body
// literals into connected components of the shared-variable graph. Two or
// more groups mean the body computes a cartesian product. Ground literals
// (no variables) are existence filters, not product factors, and are
// ignored; so are builtins, which only constrain.
func cartesianGroups(c datalog.Clause) [][]string {
	type lit struct {
		text string
		vars []string
	}
	var lits []lit
	for _, l := range c.Body {
		if l.Negated || l.Atom.IsBuiltin() {
			continue
		}
		vars := l.Atom.Vars(nil)
		if len(vars) == 0 {
			continue
		}
		lits = append(lits, lit{text: l.String(), vars: vars})
	}
	if len(lits) < 2 {
		return nil
	}
	// Union-find over literal indices via shared variables.
	parent := make([]int, len(lits))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byVar := map[string]int{}
	for i, l := range lits {
		for _, v := range l.vars {
			if j, ok := byVar[v]; ok {
				parent[find(i)] = find(j)
			} else {
				byVar[v] = i
			}
		}
	}
	groupsByRoot := map[int][]string{}
	var roots []int
	for i, l := range lits {
		r := find(i)
		if _, ok := groupsByRoot[r]; !ok {
			roots = append(roots, r)
		}
		groupsByRoot[r] = append(groupsByRoot[r], l.text)
	}
	if len(roots) < 2 {
		return nil
	}
	sort.Ints(roots)
	groups := make([][]string, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, groupsByRoot[r])
	}
	return groups
}
