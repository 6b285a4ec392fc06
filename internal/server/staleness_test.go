package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/multilog"
	"repro/internal/workload"
)

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCachedAnswersNeverStale is the result cache's staleness oracle. Over
// generated programs and random writes — facts asserted at random levels,
// some retracted again before anyone reads, rules deriving into queried
// predicates and into new ones, stored clauses of either kind retracted —
// sessions at every clearance × belief mode ask a fixed probe set after every
// step of one to three writes, and every response, from the cache or not,
// must equal what a server cold-started on the current program answers. The
// probes are single goals, whose entries a write patches, and a join, whose
// entries it drops; the oracle logs, and fails on a zero of, the hits that
// merged a patch, the hits whose answers a patch changed, and the entries
// writes dropped. A write-down rule, asserted and retracted again, flips the
// program from monotone to not and back (multilog.MonotoneClause): every
// clearance below the top changes serving level, and after such a step each
// of its answers must be uncached, as a cold server's are; the oracle fails
// on a zero of either flip.
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
		"L[p0(K: a -C-> V)], M[p1(K: a -D-> W)]",
	}
	modes := []string{"fir", "opt", "cau"}
	// answers asks every probe at every view; cached reports, per answer,
	// whether the cache served it.
	answers := func(s *Server) (out [][]map[string]string, cached []bool) {
		for i := 0; i < levels; i++ {
			for _, m := range modes {
				sess := openSess(t, s, string(workload.Level(i)), m)
				for _, q := range probes {
					resp := runQuery(t, s, sess, q)
					out, cached = append(out, resp.Answers), append(cached, resp.Cached)
				}
			}
		}
		return out, cached
	}
	// queued counts the cached entries holding a patch their next hit merges.
	queued := func(s *Server) int {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		n := 0
		for ent := s.cache.lru.next; ent != &s.cache.lru; ent = ent.next {
			if len(ent.pending) > 0 {
				n++
			}
		}
		return n
	}
	applied, ruleWrites, cachedServed, patchedHits, changedHits, dropped := 0, 0, 0, 0, 0, 0
	var flips [2]int // steps that made the program monotone, and not
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
		// write applies one random write and reports whether it changed
		// anything, and what it was.
		write := func() (clause string, retract, changed bool) {
			lo := r.Intn(levels - 1)
			hi := lo + 1 + r.Intn(levels-lo-1)
			rule, toggle := true, false
			switch k := r.Intn(7); {
			case k < 2:
				lvl := workload.Level(r.Intn(levels))
				clause, rule = fmt.Sprintf("%s[p%d(k%d: a -%s-> v%d)].", lvl, r.Intn(preds), r.Intn(8), lvl, r.Intn(5)), false
				// Half the facts go again before anyone reads: the entries
				// they touch queue their assert and their retract.
				toggle = r.Intn(2) == 0
			case k == 2:
				clause = fmt.Sprintf("%s[p%d(K: a -%s-> V)] :- %s[p%d(K: a -C-> V)] << %s.",
					workload.Level(hi), r.Intn(preds), workload.Level(hi), workload.Level(lo), r.Intn(preds), modes[r.Intn(3)])
			case k == 3:
				clause = fmt.Sprintf("%s[r0(K: d -%s-> V)] :- %s[p%d(K: a -C-> V)] << %s.",
					workload.Level(hi), workload.Level(hi), workload.Level(lo), r.Intn(preds), modes[r.Intn(3)])
			case k == 4:
				clause = "lv(X) :- level(X), order(X, Y)."
			case k == 5 && prog.current().nonMonotone == 0:
				clause = fmt.Sprintf("%s[r0(K: d -%s-> V)] :- %s[p%d(K: a -C-> V)] << %s.",
					workload.Level(lo), workload.Level(lo), workload.Level(hi), r.Intn(preds), modes[r.Intn(3)])
			case k == 5:
				for _, c := range prog.current().db.Database().Sigma {
					if !multilog.MonotoneClause(c, prog.current().poset) {
						clause, retract = c.String(), true
					}
				}
			default:
				stored := prog.current().db.Database().Sigma
				c := stored[r.Intn(len(stored))]
				clause, retract, rule = c.String(), true, !c.IsFact()
			}
			for {
				up, err := s.Update(context.Background(), writer, UpdateRequest{Clauses: clause}, retract)
				if err != nil || up.Changed == 0 {
					return clause, retract, changed // rejected (lint, admissibility) or a no-op
				}
				applied, changed = applied+1, true
				if rule {
					ruleWrites++
				}
				if !toggle {
					return clause, retract, changed
				}
				toggle, retract = false, true
			}
		}
		last, _ := answers(s) // warm every clearance and cache every probe
		for step := 0; step < steps; step++ {
			var clause string
			var retract, changed bool
			monotone := prog.current().nonMonotone == 0
			for w := 1 + r.Intn(3); w > 0; w-- {
				c, rt, ch := write()
				if ch {
					clause, retract, changed = c, rt, true
				}
			}
			if !changed {
				continue // nothing to check
			}
			cold := New(Config{})
			if err := cold.Load("test", prog.current().db.Database().String()); err != nil {
				t.Fatalf("program %d step %d: cold start on the written program: %v", n, step, err)
			}
			want, _ := answers(cold)
			patchedHits += queued(s)
			got, cached := answers(s)
			flipped := monotone != (prog.current().nonMonotone == 0)
			if flipped {
				flips[btoi(monotone)]++
			}
			for i := range got {
				if u := i / len(probes) / len(modes); flipped && u < levels-1 && cached[i] {
					t.Fatalf("program %d step %d: after %q flipped monotonicity, probe %q at %s/%s was served from the cache",
						n, step, clause, probes[i%len(probes)], workload.Level(u), modes[i/len(probes)%len(modes)])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("program %d step %d: after %q (retract=%v, the step's last write), probe %q at %s/%s answers %v, a cold server %v",
						n, step, clause, retract, probes[i%len(probes)], workload.Level(i/len(probes)/len(modes)),
						modes[i/len(probes)%len(modes)], got[i], want[i])
				}
				if cached[i] && !reflect.DeepEqual(got[i], last[i]) {
					changedHits++
				}
			}
			last = got
		}
		st := s.Stats().Cache
		cachedServed += int(st.Hits)
		dropped += int(st.Invalidations)
	}
	t.Logf("%d writes (%d of rules) over %d programs checked at %d clearance×mode views; %d answers served from the cache, %d merging a patch, %d changed by it; %d entries dropped; %d steps made the program non-monotone, %d monotone again",
		applied, ruleWrites, programs, levels*len(modes), cachedServed, patchedHits, changedHits, dropped, flips[1], flips[0])
	if applied < programs*steps/2 || ruleWrites < applied/4 || cachedServed == 0 || patchedHits == 0 || changedHits == 0 || dropped == 0 || flips[0] == 0 || flips[1] == 0 {
		t.Fatal("the oracle saw too little")
	}
}

// TestPatchedHitsDependOnlyOnDominatedLevels: two servers on one program
// take the same writes, except that each of the second's also asserts, or
// retracts, facts a clearance below the top may not see — facts of the
// written predicate at the top level, classified top or bottom — more of
// them per write than an entry may queue. At every such clearance and view, each probe's answer bytes,
// and whether the cache served them, are the same on both after every write.
// Whether a write patches an entry or drops it goes out on the wire as
// Cached, so a touch test that counted tuples above the clearance would be a
// channel from above it. (The linter refuses a fact classified above its
// level, so the class half of the touch test is held to the same at the
// multilog layer: TestPatchTouchDependsOnlyOnDominatedLevels.)
func TestPatchedHitsDependOnlyOnDominatedLevels(t *testing.T) {
	const levels = 4
	src := workload.ProgramSource(workload.ProgramConfig{Levels: levels, Facts: 100, Rules: 8, Preds: 2, Poly: 0.3, Seed: 3})
	top := workload.Level(levels - 1)
	probes := []string{
		"L[p0(K: a -C-> V)]",
		"l0[p0(K: a -C-> V)]",
		"L[p1(K: a -C-> V)] << cau",
		"L[p0(K: a -C-> v1)]",
		"L[p0(K: a -C-> V)], M[p1(K: a -D-> W)]",
	}
	modes := []string{"fir", "opt", "cau"}
	servers := [2]*Server{New(Config{}), New(Config{})}
	var writers [2]*Session
	for i, s := range servers {
		if err := s.Load("test", src); err != nil {
			t.Fatal(err)
		}
		writers[i] = openSess(t, s, string(top), "")
	}
	type view struct {
		answers []byte
		cached  bool
	}
	// ask asks every probe at every view below the top: in each belief mode,
	// and raw, whose m-goals read the level relations themselves.
	ask := func(s *Server) []view {
		var out []view
		for l := 0; l < levels-1; l++ {
			for _, m := range append(modes, "raw") {
				raw := m == "raw"
				if raw {
					m = ""
				}
				sess := openSess(t, s, string(workload.Level(l)), m)
				for _, q := range probes {
					resp, answers, err := s.Query(context.Background(), sess, QueryRequest{Query: q, Raw: raw})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, view{answers, resp.Cached})
				}
			}
		}
		return out
	}
	ask(servers[0])
	ask(servers[1])
	for step := 0; step < 12; step++ {
		// Even steps assert a visible fact, odd ones retract it; the hidden
		// facts go in and out with it on the second server.
		pair, retract := step/2, step%2 == 1
		lvl, pred := workload.Level(pair%(levels-1)), pair%2
		visible := fmt.Sprintf("%s[p%d(w%d: a -%s-> v1)].\n", lvl, pred, pair, lvl)
		hidden := visible
		for j := 0; j < maxPending+8; j++ {
			hidden += fmt.Sprintf("%[1]s[p%[2]d(t%[3]d_%[4]d: a -%[1]s-> v1)].\n%[1]s[p%[2]d(b%[3]d_%[4]d: a -%[5]s-> v1)].\n",
				top, pred, pair, j, workload.Level(0))
		}
		for i, clauses := range []string{visible, hidden} {
			if _, err := servers[i].Update(context.Background(), writers[i], UpdateRequest{Clauses: clauses}, retract); err != nil {
				t.Fatal(err)
			}
		}
		low, high := ask(servers[0]), ask(servers[1])
		for i := range low {
			if low[i].cached != high[i].cached || !bytes.Equal(low[i].answers, high[i].answers) {
				n := len(probes) * (len(modes) + 1)
				t.Fatalf("step %d: %q at %s/%s answers %s (cached=%v) without the hidden facts, %s (cached=%v) with them",
					step, probes[i%len(probes)], workload.Level(i/n), append(modes, "raw")[i/len(probes)%(len(modes)+1)],
					low[i].answers, low[i].cached, high[i].answers, high[i].cached)
			}
		}
	}
	t.Logf("%d patches at the clearances below %s", servers[0].Stats().Cache.Patched, top)
	if servers[0].Stats().Cache.Patched == 0 {
		t.Fatal("no write patched an entry: the test compared nothing")
	}
}

// TestConcurrentWritersLeaveTheCacheExact: two writers assert and retract
// facts while four readers ask single-goal probes, which writes patch, and a
// join, which they drop, at every clearance and view. Once all are done,
// every probe's answer — each a cached entry's, most of them patched —
// equals a cold server's on the final program. Writes reach the cache in
// epoch order whatever their interleaving with each other and with the
// readers' Gets and Puts; run under -race (make race).
func TestConcurrentWritersLeaveTheCacheExact(t *testing.T) {
	const levels, preds = 4, 3
	writes := 40
	if testing.Short() {
		writes = 16
	}
	s := New(Config{})
	if err := s.Load("test", workload.ProgramSource(workload.ProgramConfig{
		Levels: levels, Facts: 40, Rules: 4, Preds: preds, Seed: 7, Poly: 0.3})); err != nil {
		t.Fatal(err)
	}
	probes := []string{"L[p0(K: a -C-> V)]", "L[p1(K: a -C-> V)] << cau", "l1[p2(K: a -C-> V)]", "L[p0(K: a -C-> V)], M[p1(K: a -D-> W)]"}
	modes := []string{"fir", "opt", "cau"}
	type view struct {
		sess *Session
		q    string
	}
	var views []view
	for l := 0; l < levels; l++ {
		for _, m := range modes {
			sess := openSess(t, s, string(workload.Level(l)), m)
			for _, q := range probes {
				views = append(views, view{sess, q})
			}
		}
	}
	ctx := context.Background()
	for _, v := range views { // warm every clearance and cache every probe
		if _, _, err := s.Query(ctx, v.sess, QueryRequest{Query: v.q}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			writer := openSess(t, s, string(workload.Level(levels-1)), "")
			for i := 0; i < writes; i++ {
				lvl := workload.Level((i/2 + w) % levels)
				fact := fmt.Sprintf("%s[p%d(w%d_%d: a -%s-> v%d)].", lvl, i/2%preds, w, i/2, lvl, w)
				if _, err := s.Update(ctx, writer, UpdateRequest{Clauses: fact}, i%2 == 1 && i%6 != 1); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i += 7 {
				select {
				case <-done:
					return
				default:
				}
				v := views[i%len(views)]
				if _, _, err := s.Query(ctx, v.sess, QueryRequest{Query: v.q}); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	prog, err := s.program("test")
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Config{})
	if err := cold.Load("test", prog.current().db.Database().String()); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, v := range views {
		resp, got, err := s.Query(ctx, v.sess, QueryRequest{Query: v.q})
		if err != nil {
			t.Fatal(err)
		}
		csess := openSess(t, cold, string(v.sess.Clearance), string(v.sess.Mode))
		if _, want, err := cold.Query(ctx, csess, QueryRequest{Query: v.q}); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%q at %s/%s answers %s (cached=%v), a cold server %s (err=%v)", v.q, v.sess.Clearance, v.sess.Mode, got, resp.Cached, want, err)
		}
		if resp.Cached {
			cached++
		}
	}
	st := s.Stats().Cache
	t.Logf("%d of %d views answered from the cache after %d writes; %d entries patched, %d dropped", cached, len(views), 2*writes, st.Patched, st.Invalidations)
	if cached == 0 || st.Patched == 0 {
		t.Fatal("the readers left nothing patched in the cache: the test compared nothing")
	}
}
