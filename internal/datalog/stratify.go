package datalog

import (
	"fmt"
	"sort"
)

// DepEdge is an edge of the predicate dependency graph: Head depends on Body
// (positively or through negation).
type DepEdge struct {
	From, To string // From = head predicate, To = body predicate
	Negative bool
}

// DependencyGraph returns the dependency edges of the program, deduplicated,
// keeping an edge negative if any occurrence is negative.
func DependencyGraph(p *Program) []DepEdge {
	type key struct{ from, to string }
	neg := map[key]bool{}
	seen := map[key]bool{}
	var order []key
	for _, c := range p.Clauses {
		for _, l := range c.Body {
			if l.Atom.IsBuiltin() {
				continue
			}
			k := key{c.Head.Pred, l.Atom.Pred}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			if l.Negated {
				neg[k] = true
			}
		}
	}
	out := make([]DepEdge, len(order))
	for i, k := range order {
		out[i] = DepEdge{From: k.from, To: k.to, Negative: neg[k]}
	}
	return out
}

// Stratify assigns each predicate a stratum number such that positive
// dependencies stay within or below a stratum and negative dependencies go
// strictly below. It returns an error when the program is not stratifiable
// (a negative edge participates in a dependency cycle).
func Stratify(p *Program) (map[string]int, error) {
	preds := p.Predicates()
	stratum := map[string]int{}
	for _, q := range preds {
		stratum[q] = 0
	}
	edges := DependencyGraph(p)
	// Standard iterative lifting; at most |preds| rounds, more means a
	// negative cycle.
	for round := 0; ; round++ {
		changed := false
		for _, e := range edges {
			want := stratum[e.To]
			if e.Negative {
				want++
			}
			if stratum[e.From] < want {
				stratum[e.From] = want
				changed = true
			}
		}
		if !changed {
			break
		}
		if round > len(preds)+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable: negation through recursion: %s", FormatCycle(NegativeCycleEdges(edges)))
		}
	}
	return stratum, nil
}

// NegativeCycle returns a dependency cycle of the program that passes
// through at least one negative edge — the witness that the program is not
// stratifiable — or nil when every negation is stratified. The cycle is
// returned as its edge sequence, starting at the negative edge.
func NegativeCycle(p *Program) []DepEdge {
	return NegativeCycleEdges(DependencyGraph(p))
}

// NegativeCycleEdges is NegativeCycle over a precomputed edge list.
func NegativeCycleEdges(edges []DepEdge) []DepEdge {
	// For determinism, try negative edges in sorted order; for each negative
	// edge u -not-> v, a shortest path v ⇒ u (BFS) closes the cycle.
	var negs []DepEdge
	for _, e := range edges {
		if e.Negative {
			negs = append(negs, e)
		}
	}
	if len(negs) == 0 {
		return nil
	}
	adj := map[string][]DepEdge{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
	}
	sort.Slice(negs, func(i, j int) bool {
		if negs[i].From != negs[j].From {
			return negs[i].From < negs[j].From
		}
		return negs[i].To < negs[j].To
	})
	for _, ne := range negs {
		if ne.To == ne.From {
			return []DepEdge{ne}
		}
		// BFS from ne.To back to ne.From.
		prev := map[string]DepEdge{}
		seen := map[string]bool{ne.To: true}
		queue := []string{ne.To}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range adj[n] {
				if seen[e.To] {
					continue
				}
				seen[e.To] = true
				prev[e.To] = e
				if e.To == ne.From {
					// Reconstruct the path ne.To ⇒ ne.From.
					var path []DepEdge
					for at := ne.From; at != ne.To; at = prev[at].From {
						path = append(path, prev[at])
					}
					cycle := []DepEdge{ne}
					for i := len(path) - 1; i >= 0; i-- {
						cycle = append(cycle, path[i])
					}
					return cycle
				}
				queue = append(queue, e.To)
			}
		}
	}
	return nil
}

// FormatCycle renders an edge cycle as "p -> not q -> r -> p", writing
// "not" before the target of each negative edge.
func FormatCycle(cycle []DepEdge) string {
	if len(cycle) == 0 {
		return "(unknown cycle)"
	}
	var b []byte
	b = append(b, cycle[0].From...)
	for _, e := range cycle {
		if e.Negative {
			b = append(b, " -> not "...)
		} else {
			b = append(b, " -> "...)
		}
		b = append(b, e.To...)
	}
	return string(b)
}

// Strata groups the program's clauses by the stratum of their head
// predicate, lowest first.
func Strata(p *Program) ([][]Clause, error) {
	stratum, err := Stratify(p)
	if err != nil {
		return nil, err
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]Clause, maxS+1)
	for _, c := range p.Clauses {
		s := stratum[c.Head.Pred]
		out[s] = append(out[s], c)
	}
	return out, nil
}
