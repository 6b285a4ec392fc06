// Package analysis implements whole-program static analyses for the
// Datalog and MultiLog front-ends as instances of one generic monotone
// dataflow framework: a worklist fixpoint over the predicate dependency
// graph, parameterized by a join-semilattice of abstract values.
//
// Two analyses are instantiated on it:
//
//   - MLS information flow (flow.go): per-predicate classification
//     bounds over the security lattice, downgrade channels, belief-mode
//     divergence, and clearance-(in)dependence claims that the
//     differential harness cross-validates against the reduction
//     semantics;
//   - cost/shape (cost.go): cartesian-product rule bodies and first-order
//     join fan-out estimates.
//
// Beside them, Nonlinear (cost.go) finds nonlinearly recursive rules from
// the dependency graph's components alone: lint reports them (DL010), and
// the compiled engine routes such a program to the interpreter.
//
// The framework deliberately mirrors the lattice-valued fixpoint view of
// Datalog semantics (MV-Datalog±, Loyer/Spyratos/Stamate): an analysis is
// the same fixpoint computation run over an abstract domain instead of
// the concrete Herbrand base.
package analysis

// Contribution pairs a key (normally a predicate name) with an abstract
// value flowing into it.
type Contribution[V any] struct {
	Key   string
	Value V
}

// Solver is a generic monotone worklist solver. An instance fixes the
// value lattice via Bottom and Join; Solve then runs a set of transfer
// functions (normally one per clause) to their least fixpoint.
type Solver[V any] struct {
	// Bottom produces the least value for a key that has received no
	// contribution yet.
	Bottom func(key string) V
	// Join merges an incoming value into the current one and reports
	// whether the result strictly grew. Join must be monotone and
	// idempotent — it never shrinks, and joining a value twice changes
	// nothing — or Solve may not terminate.
	Join func(cur, in V) (V, bool)
	// MaxApplications bounds the total number of transfer applications,
	// guarding against accidentally infinite abstract domains. 0 means
	// the default (1e6).
	MaxApplications int
}

// Solve runs the fixpoint. rules is the number of transfer functions;
// reads(i) lists the keys whose growth re-queues rule i; transfer(i, get)
// returns rule i's contributions under the current assignment, where
// get(k) reads the current value of k (Bottom(k) if none). seed is joined
// in first. Every rule runs at least once. The returned map is the least
// fixpoint assignment; converged is false only when MaxApplications was
// exhausted first (the partial assignment is still a sound
// under-approximation of the fixpoint, but callers should degrade to
// "unknown" rather than trust it as complete).
func (s Solver[V]) Solve(
	rules int,
	reads func(i int) []string,
	transfer func(i int, get func(string) V) []Contribution[V],
	seed []Contribution[V],
) (values map[string]V, converged bool) {
	values = map[string]V{}
	join := func(c Contribution[V]) bool {
		cur, ok := values[c.Key]
		if !ok {
			cur = s.Bottom(c.Key)
		}
		next, grew := s.Join(cur, c.Value)
		if grew || !ok {
			values[c.Key] = next
		}
		return grew
	}
	get := func(k string) V {
		if v, ok := values[k]; ok {
			return v
		}
		return s.Bottom(k)
	}

	dependents := map[string][]int{}
	for i := 0; i < rules; i++ {
		for _, k := range reads(i) {
			dependents[k] = append(dependents[k], i)
		}
	}
	for _, c := range seed {
		join(c)
	}

	// Every rule starts queued so rules with no reads (facts) fire once.
	queued := make([]bool, rules)
	work := make([]int, 0, rules)
	enqueue := func(i int) {
		if !queued[i] {
			queued[i] = true
			work = append(work, i)
		}
	}
	for i := 0; i < rules; i++ {
		enqueue(i)
	}

	budget := s.MaxApplications
	if budget <= 0 {
		budget = 1_000_000
	}
	for len(work) > 0 {
		if budget == 0 {
			return values, false
		}
		budget--
		i := work[0]
		work = work[1:]
		queued[i] = false
		for _, c := range transfer(i, get) {
			if join(c) {
				for _, dep := range dependents[c.Key] {
					enqueue(dep)
				}
			}
		}
	}
	return values, true
}

// SCCs computes strongly connected components (Tarjan) of a graph given
// as adjacency lists over string nodes, in a deterministic order. It
// returns the component index per node; nodes in the same component are
// mutually reachable. Used by the cost analysis and Nonlinear to detect
// recursion and to keep size estimates first-order.
func SCCs(nodes []string, succ map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	comp := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next, ncomp := 0, 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return comp
}
