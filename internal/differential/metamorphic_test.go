package differential

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// Fact-addition monotonicity over every negation-free generated family.
func TestMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, c := range DatalogPrograms(11, 40) {
		if err := CheckMonotonicity(c.Program, c.Goal, r); err != nil {
			t.Errorf("family %s seed %d: %v", c.Family, c.Seed, err)
		}
	}
}

// View coherence under label dominance: a higher-cleared user sees a
// superset of every lower user's answers, for every probe query of every
// generated database.
func TestDominanceCoherence(t *testing.T) {
	checked, reference := map[string]bool{}, MultiLogOracles()[0]
	for _, c := range MultiLogPrograms(13, 15) {
		// The property quantifies over all users itself; dedup per
		// (program, query).
		key := c.Source + "|" + c.QuerySrc
		if checked[key] {
			continue
		}
		checked[key] = true
		if err := CheckDominanceCoherence(c, reference); err != nil {
			t.Errorf("seed %d: %v", c.Seed, err)
		}
	}
}

// Proposition 6.1: every negation-free generated Datalog program, embedded
// as a MultiLog database with a single level and empty security components,
// answers identically under plain Datalog, the operational prover, and the
// reduction.
func TestEmbeddingProposition61(t *testing.T) {
	for _, c := range DatalogPrograms(17, 40) {
		// Skip the families built around cyclic data: the goal-directed
		// prover has no tabling, so its depth bound fires and the oracle
		// is skipped anyway; checking the terminating families keeps the
		// property sharp.
		if c.Family == workload.FamGraphTC {
			continue
		}
		if err := CheckEmbedding(c.Program, c.Goal); err != nil {
			t.Errorf("family %s seed %d: %v", c.Family, c.Seed, err)
		}
	}
}
