package server

import (
	"testing"

	"repro/internal/compile"
)

// TestCompiledPlanCacheOnServer pins the server ↔ plan-cache contract:
// preparing a reduction goes through the compiled engine, a second server
// loading the same program reuses the cached plan (the restart/replica
// case), and a write neither invalidates nor compiles a plan. The counters
// are process-wide, so every assertion is a delta against a baseline
// snapshot.
func TestCompiledPlanCacheOnServer(t *testing.T) {
	const query = "l1[payroll(K: cost -C-> V)]"

	s := newIncServer(t, Config{CacheEntries: -1})
	sess := openSess(t, s, "l1", "opt")

	base := compile.DefaultCache.Stats()
	runQuery(t, s, sess, query)
	afterFirst := compile.DefaultCache.Stats()
	if afterFirst.Hits+afterFirst.Misses <= base.Hits+base.Misses {
		t.Fatalf("first query never consulted the plan cache: %+v -> %+v", base, afterFirst)
	}

	// A second server loading the same program reduces to the same rule
	// set, so preparing the same clearance must hit the cached plan
	// without compiling.
	s2 := newIncServer(t, Config{CacheEntries: -1})
	sess2 := openSess(t, s2, "l1", "opt")
	runQuery(t, s2, sess2, query)
	afterSecond := compile.DefaultCache.Stats()
	if afterSecond.Hits <= afterFirst.Hits {
		t.Errorf("same program on a second server missed the plan cache: %+v -> %+v", afterFirst, afterSecond)
	}
	if afterSecond.Compiles != afterFirst.Compiles {
		t.Errorf("same program recompiled: %d -> %d compiles", afterFirst.Compiles, afterSecond.Compiles)
	}

	// Fact-only write: the reduced rule set is unchanged, so no plan is
	// invalidated and nothing recompiles.
	runUpdate(t, s, sess, "l0[emp(carol: salary -l0-> low)].", false)
	runQuery(t, s, sess, query)
	afterFact := compile.DefaultCache.Stats()
	if afterFact.Invalidations != afterSecond.Invalidations {
		t.Errorf("fact-only write invalidated plans: %d -> %d", afterSecond.Invalidations, afterFact.Invalidations)
	}
	if afterFact.Compiles != afterSecond.Compiles {
		t.Errorf("fact-only write recompiled plans: %d -> %d", afterSecond.Compiles, afterFact.Compiles)
	}

	// A rule write is a delta of the warm model as well: the plan the cold
	// build compiled stays where it is, and no other is compiled.
	runUpdate(t, s, sess, "l1[audit(K: cost -l1-> V)] :- l0[dept(K: head -C-> V)] << opt.", false)
	runQuery(t, s, sess, query)
	if afterRule := compile.DefaultCache.Stats(); afterRule.Invalidations != afterFact.Invalidations || afterRule.Compiles != afterFact.Compiles {
		t.Errorf("rule write touched the plan cache: %+v -> %+v", afterFact, afterRule)
	}

	// The counters are API: /v1/stats carries them.
	if st := s.Stats(); st.Compiled.Capacity == 0 {
		t.Errorf("StatsResponse.Compiled not populated: %+v", st.Compiled)
	}
}
