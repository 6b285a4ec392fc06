package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestCachedAnswersNeverStale is the result cache's staleness oracle. Over
// generated programs and random writes — facts asserted at random levels,
// rules deriving into queried predicates and into new ones, stored clauses of
// either kind retracted — sessions at every clearance × belief mode ask a
// fixed probe set after every write, and every response, from the cache or
// not, must equal what a server cold-started on the current program answers.
func TestCachedAnswersNeverStale(t *testing.T) {
	programs, steps := 40, 8
	if testing.Short() {
		programs = 20
	}
	const levels, preds = 4, 3
	probes := []string{
		"L[p0(K: a -C-> V)]",
		"l1[p1(K: a -C-> V)]",
		"L[p2(K: a -C-> V)] << cau",
		"L[q0(K: d -C-> V)]",
		"L[r0(K: d -C-> V)]",
		"lv(X)",
	}
	modes := []string{"fir", "opt", "cau"}
	answers := func(s *Server) [][]map[string]string {
		var out [][]map[string]string
		for i := 0; i < levels; i++ {
			for _, m := range modes {
				sess := openSess(t, s, string(workload.Level(i)), m)
				for _, q := range probes {
					out = append(out, runQuery(t, s, sess, q).Answers)
				}
			}
		}
		return out
	}
	applied, ruleWrites, cachedServed := 0, 0, 0
	for n := 0; n < programs; n++ {
		r := rand.New(rand.NewSource(int64(2500 + n)))
		src := workload.ProgramSource(workload.ProgramConfig{
			Levels: levels, Facts: 24, Rules: 4, Preds: preds, Seed: int64(n), Poly: 0.3,
		})
		s := New(Config{})
		if err := s.Load("test", src); err != nil {
			t.Fatal(err)
		}
		prog, err := s.program("test")
		if err != nil {
			t.Fatal(err)
		}
		writer := openSess(t, s, string(workload.Level(levels-1)), "")
		answers(s) // warm every clearance and cache every probe
		for step := 0; step < steps; step++ {
			lo := r.Intn(levels - 1)
			hi := lo + 1 + r.Intn(levels-lo-1)
			clause, retract, rule := "", false, true
			switch k := r.Intn(6); {
			case k < 2:
				lvl := workload.Level(r.Intn(levels))
				clause, rule = fmt.Sprintf("%s[p%d(k%d: a -%s-> v%d)].", lvl, r.Intn(preds), r.Intn(8), lvl, r.Intn(5)), false
			case k == 2:
				clause = fmt.Sprintf("%s[p%d(K: a -%s-> V)] :- %s[p%d(K: a -C-> V)] << %s.",
					workload.Level(hi), r.Intn(preds), workload.Level(hi), workload.Level(lo), r.Intn(preds), modes[r.Intn(3)])
			case k == 3:
				clause = fmt.Sprintf("%s[r0(K: d -%s-> V)] :- %s[p%d(K: a -C-> V)] << %s.",
					workload.Level(hi), workload.Level(hi), workload.Level(lo), r.Intn(preds), modes[r.Intn(3)])
			case k == 4:
				clause = "lv(X) :- level(X), order(X, Y)."
			default:
				stored := prog.current().db.Database().Sigma
				c := stored[r.Intn(len(stored))]
				clause, retract, rule = c.String(), true, !c.IsFact()
			}
			up, err := s.Update(context.Background(), writer, UpdateRequest{Clauses: clause}, retract)
			if err != nil || up.Changed == 0 {
				continue // rejected (lint, admissibility) or a no-op: nothing to check
			}
			applied++
			if rule {
				ruleWrites++
			}
			cold := New(Config{})
			if err := cold.Load("test", prog.current().db.Database().String()); err != nil {
				t.Fatalf("program %d step %d: cold start on the written program: %v", n, step, err)
			}
			want := answers(cold)
			got := answers(s)
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("program %d step %d: after %q (retract=%v), probe %q at %s/%s answers %v, a cold server %v",
						n, step, clause, retract, probes[i%len(probes)], workload.Level(i/len(probes)/len(modes)),
						modes[i/len(probes)%len(modes)], got[i], want[i])
				}
			}
		}
		cachedServed += int(s.Stats().Cache.Hits)
	}
	if applied < programs*steps/2 || ruleWrites < applied/4 || cachedServed == 0 {
		t.Fatalf("%d writes applied (%d of rules), %d answers served from the cache: the oracle saw too little",
			applied, ruleWrites, cachedServed)
	}
	t.Logf("%d writes (%d of rules) over %d programs checked at %d clearance×mode views; %d answers served from the cache",
		applied, ruleWrites, programs, levels*len(modes), cachedServed)
}
