package multilog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lattice"
)

// randomDatabase builds a seeded, admissible, level-stratified MultiLog
// database: a random lattice (chain or diamond), random m-facts, m-clauses
// whose bodies read beliefs at strictly lower levels (so the reduction
// stratifies), and classical helper predicates. Predicate dependencies are
// acyclic so the top-down prover terminates without tabling.
func randomDatabase(r *rand.Rand) (*Database, []lattice.Label) {
	var b strings.Builder
	var levels []lattice.Label
	if r.Intn(2) == 0 {
		levels = []lattice.Label{"u", "c", "s"}
		b.WriteString("level(u). level(c). level(s). order(u, c). order(c, s).\n")
	} else {
		levels = []lattice.Label{"lo", "left", "right", "top"}
		b.WriteString("level(lo). level(left). level(right). level(top).\n")
		b.WriteString("order(lo, left). order(lo, right). order(left, top). order(right, top).\n")
	}
	keys := []string{"k1", "k2"}
	attrs := []string{"a", "b"}
	vals := []string{"v1", "v2", "v3"}
	// Facts: every key gets its apparent-key atom per level used.
	nFacts := 3 + r.Intn(5)
	for i := 0; i < nFacts; i++ {
		lvl := levels[r.Intn(len(levels))]
		key := keys[r.Intn(len(keys))]
		attr := attrs[r.Intn(len(attrs))]
		val := vals[r.Intn(len(vals))]
		// Classification: the fact's own level keeps entity integrity
		// trivially satisfiable.
		fmt.Fprintf(&b, "%s[p%d(%s: %s -%s-> %s)].\n", lvl, r.Intn(2), key, attr, lvl, val)
		_ = val
	}
	// Classical helpers.
	b.WriteString("h(x). h(y).\n")
	// Rules: heads at a level strictly above their body belief levels.
	nRules := 1 + r.Intn(3)
	for i := 0; i < nRules; i++ {
		hi := 1 + r.Intn(len(levels)-1)
		lo := r.Intn(hi)
		mode := []string{"fir", "opt", "cau"}[r.Intn(3)]
		fmt.Fprintf(&b, "%s[q%d(%s: d -%s-> derived)] :- %s[p%d(K: %s -C-> V)] << %s, h(X).\n",
			levels[hi], i, keys[r.Intn(len(keys))], levels[hi],
			levels[lo], r.Intn(2), attrs[r.Intn(len(attrs))], mode)
	}
	db, err := Parse(b.String())
	if err != nil {
		panic(fmt.Sprintf("generator produced unparsable program:\n%s\n%v", b.String(), err))
	}
	return db, levels
}

// t1Probes are the queries the T1 corpus is probed with at its levels.
func t1Probes(levels []lattice.Label) []string {
	var out []string
	for _, l := range levels {
		out = append(out,
			fmt.Sprintf("%s[p0(K: a -C-> V)]", l),
			fmt.Sprintf("%s[p0(K: a -C-> V)] << fir", l),
			fmt.Sprintf("%s[p0(K: a -C-> V)] << opt", l),
			fmt.Sprintf("%s[p0(K: a -C-> V)] << cau", l),
			fmt.Sprintf("%s[p1(K: b -C-> V)] << cau", l),
			fmt.Sprintf("%s[q0(K: d -C-> V)]", l),
		)
	}
	out = append(out, "L[p0(K: a -C-> V)] << opt") // variable level
	return out
}

// Theorem 6.1 / Experiment T1: on seeded random databases, every query in a
// probe family yields identical answer sets under the operational and the
// reduction semantics, at every user level.
func TestTheorem61Randomized(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		db, levels := randomDatabase(r)
		for _, user := range levels {
			red, err := Reduce(db, user)
			if err != nil {
				t.Fatalf("seed %d user %s: %v\n%s", seed, user, err, db)
			}
			prover, err := NewProver(db, user)
			if err != nil {
				t.Fatal(err)
			}
			for _, qsrc := range t1Probes(levels) {
				q, err := ParseGoals(qsrc)
				if err != nil {
					t.Fatal(err)
				}
				redAns, err := red.Query(q)
				if err != nil {
					t.Fatalf("seed %d user %s query %s: reduction: %v\n%s", seed, user, qsrc, err, db)
				}
				opAns, err := prover.Prove(q, 0)
				if err != nil {
					t.Fatalf("seed %d user %s query %s: operational: %v\n%s", seed, user, qsrc, err, db)
				}
				redSet := map[string]bool{}
				for _, a := range redAns {
					redSet[a.Bindings.String()] = true
				}
				opSet := map[string]bool{}
				for _, a := range opAns {
					opSet[a.Bindings.String()] = true
				}
				if len(redSet) != len(opSet) {
					t.Fatalf("seed %d user %s query %s:\nreduction %v\noperational %v\nprogram:\n%s",
						seed, user, qsrc, keysOf(redSet), keysOf(opSet), db)
				}
				for bnd := range redSet {
					if !opSet[bnd] {
						t.Fatalf("seed %d user %s query %s: %s only in reduction\n%s",
							seed, user, qsrc, bnd, db)
					}
				}
			}
		}
	}
}
