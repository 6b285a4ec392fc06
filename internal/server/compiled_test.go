package server

import (
	"testing"

	"repro/internal/compile"
)

// TestCompiledPlanCacheOnServer pins the server ↔ plan-cache contract:
// preparing a reduction goes through the compiled engine, a second server
// loading the same program reuses the cached plan (the restart/replica
// case), fact-only writes leave plans cached, and a rule write drops the
// program's stranded plans. The counters are process-wide, so every
// assertion is a delta against a baseline snapshot.
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

	// Rule write: the program's cached plans are stranded under dead keys
	// and must be dropped.
	runUpdate(t, s, sess, "l1[audit(K: cost -l1-> V)] :- l0[dept(K: head -C-> V)] << opt.", false)
	afterRule := compile.DefaultCache.Stats()
	if afterRule.Invalidations <= afterFact.Invalidations {
		t.Errorf("rule write did not invalidate plans: %d -> %d", afterFact.Invalidations, afterRule.Invalidations)
	}

	// The counters are API: /v1/stats carries them.
	if st := s.Stats(); st.Compiled.Capacity == 0 {
		t.Errorf("StatsResponse.Compiled not populated: %+v", st.Compiled)
	}
}

// TestRuleWriteKeepsOtherDatabasesPlans: the plan cache is process-wide and
// a rule write names the plans to drop by predicate, so it must not name
// the lattice predicates every reduction of every database mentions — a
// rule write on one database leaves another's plans cached.
func TestRuleWriteKeepsOtherDatabasesPlans(t *testing.T) {
	const other = `
		level(l0). level(l1). order(l0, l1).
		l0[ship(enterprise: captain -l0-> kirk)].
		l1[roster(K: lead -l1-> V)] :- l0[ship(K: captain -C-> V)] << cau.
	`
	const query = "l1[roster(K: lead -C-> V)]"
	load := func() (*Server, *Session) {
		s := newIncServer(t, Config{CacheEntries: -1})
		if err := s.Load("other", other); err != nil {
			t.Fatal(err)
		}
		sess, _, err := s.Open(OpenRequest{Subject: "t", Clearance: "l1", DB: "other"})
		if err != nil {
			t.Fatal(err)
		}
		return s, sess
	}
	s, otherSess := load()
	runQuery(t, s, otherSess, query) // compiles and caches other's plan at l1
	writer := openSess(t, s, "l1", "")
	runQuery(t, s, writer, "l1[payroll(K: cost -C-> V)]") // a warm reduction of test, whose plans the write names

	before := compile.DefaultCache.Stats()
	runUpdate(t, s, writer, "l1[audit(K: cost -l1-> V)] :- l0[dept(K: head -C-> V)] << opt.", false)
	afterRule := compile.DefaultCache.Stats()
	if afterRule.Invalidations <= before.Invalidations {
		t.Fatalf("the rule write dropped none of its own database's plans: %+v -> %+v", before, afterRule)
	}

	// The next prepare of other — here by a second server loading it — must
	// find its plan where the first one left it.
	s2, otherSess2 := load()
	runQuery(t, s2, otherSess2, query)
	after := compile.DefaultCache.Stats()
	if after.Hits <= afterRule.Hits || after.Compiles != afterRule.Compiles {
		t.Fatalf("a rule write on another database cost this one its plan: %+v -> %+v", afterRule, after)
	}
}
