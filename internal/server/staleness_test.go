package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
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

// staleProgramMix and staleWriteMix are the shape mixes of
// TestCachedAnswersNeverStale: monotone programs, and writes that add rules
// of those shapes and facts, retract stored clauses, and derive downward,
// which makes the program non-monotone. Beside them the oracle writes
// staleLevelRule, a Π rule over Λ, whose own probe is undefined until then.
var (
	staleProgramMix = workload.Mix{workload.ConstantLevel: 2, workload.LevelVariable: 1, workload.ClassFromBody: 1, workload.PiReading: 1}
	staleWriteMix   = staleProgramMix.With(workload.Mix{workload.Fact: 4, workload.WriteDown: 1, workload.Retract: 2})
	staleLevelRule  = workload.Write{Clause: workload.Clause{Src: "lv(X) :- level(X), order(X, Y).", Shape: "pi-rule"}}
)

// TestCachedAnswersNeverStale is the result cache's staleness oracle. Over
// generated programs and writes drawn from staleWriteMix — facts asserted at
// random levels, some retracted again before anyone reads, rules deriving
// into queried predicates and into new ones, stored clauses of either kind
// retracted — and staleLevelRule, sessions at every clearance × belief mode
// ask the program's probes after every step of one to three writes, and
// every response, from the cache or not, must equal what a server
// cold-started on the current program answers. The probes are
// workload.Probes' (each predicate at a level variable as an m-atom, and at
// a level variable or l1 in an explicit mode or none, in turn; the joins;
// the Π goals), and probes of predicates no clause defines at load: the
// heads of the first writes (DrawWrite names the n-th write's new head w<n>)
// and staleLevelRule's lv. The single-goal probes' entries a write patches,
// the joins' it drops; the oracle logs, and fails on a zero of, the hits
// that merged a patch, the hits whose answers a patch changed, the entries
// writes dropped, and the answers of the predicates undefined at load. A
// write-down rule flips the program from monotone to not
// (multilog.MonotoneClause), and its retract flips it back: every clearance
// below the top changes serving level, and after such a step each of its
// answers must be uncached where a cold server's is (a cold server, too,
// serves a probe from the cache when an earlier probe at the same clearance
// is the same query); the oracle fails on a zero of either flip, and of any
// shape of the write mix.
func TestCachedAnswersNeverStale(t *testing.T) {
	programs, steps := 40, 9
	if testing.Short() {
		programs = 20
	}
	const levels, preds = 4, 3
	modes := []string{"fir", "opt", "cau"}
	none := []byte("[]") // the answers to a query with none
	var probes []string
	// answers asks every probe at every view, and keeps the answers' bytes;
	// cached reports, per answer, whether the cache served it.
	answers := func(s *Server) (out [][]byte, cached []bool) {
		for i := 0; i < levels; i++ {
			for _, m := range modes {
				sess := openSess(t, s, string(workload.Level(i)), m)
				for _, q := range probes {
					resp, got, err := s.Query(context.Background(), sess, QueryRequest{Query: q})
					if err != nil {
						t.Fatalf("query %q: %v", q, err)
					}
					out, cached = append(out, bytes.Clone(got)), append(cached, resp.Cached)
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
	var lateAnswers [2]int // non-empty answers of the write heads' probes, and of lv's
	var flips [2]int       // steps that made the program monotone, and not
	drawn := map[workload.ClauseShape]int{}
	for n := 0; n < programs; n++ {
		r := rand.New(rand.NewSource(int64(2500 + n)))
		gen := workload.Generate(workload.ProgramConfig{Lattice: workload.ShapeChain, Levels: levels, Facts: 24, Rules: 4, Preds: preds,
			Poly: 0.3, Mix: staleProgramMix, Seed: int64(n)})
		s := New(Config{})
		if err := s.Load("test", gen.Source); err != nil {
			t.Fatal(err)
		}
		prog, err := s.program("test")
		if err != nil {
			t.Fatal(err)
		}
		probes = probes[:0]
		// Probes gives each predicate eight probes, at L and at l1, as an
		// m-atom and in fir, opt and cau; the oracle asks the first, and
		// one of the other seven in turn.
		for i, p := range workload.Probes(prog.current().db.Database(), gen.Poset, workload.Level(1)) {
			if p.Pred == "" || i%8 == 0 || i%8 == 1+i/8%7 {
				probes = append(probes, p.Src)
			}
		}
		late := len(probes) // the probes of predicates no clause defines yet
		probes = append(probes, "L[w0(K: d -C-> V)]", "L[w1(K: d -C-> V)]", "L[w2(K: d -C-> V)]", "L[w3(K: d -C-> V)]", "lv(X)")
		writer := openSess(t, s, string(workload.Level(levels-1)), "")
		writes := 0
		// write applies one write and reports whether it changed anything,
		// and what it was: when the program is not monotone, a third of
		// the time the retract of a clause that makes it so, else one time in
		// twelve staleLevelRule, else a write drawn from staleWriteMix.
		write := func() (clause string, retract, changed bool) {
			cur := prog.current()
			var w workload.Write
			if cur.nonMonotone > 0 && r.Intn(3) == 0 {
				for _, c := range cur.db.Database().Sigma {
					if !multilog.MonotoneClause(c, cur.poset) {
						w = workload.Write{Clause: workload.Clause{Src: c.String(), Shape: workload.Retract}, Retract: true}
					}
				}
			} else if r.Intn(12) == 0 {
				w = staleLevelRule
			} else {
				w = workload.DrawWrite(r, cur.db.Database(), cur.poset, staleWriteMix, writes)
				writes++
			}
			drawn[w.Shape]++
			clause, retract = w.Src, w.Retract
			rule := strings.Contains(w.Src, ":-")
			// Half the facts go again before anyone reads: the entries they
			// touch queue their assert and their retract.
			toggle := w.Shape == workload.Fact && r.Intn(2) == 0
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
			want, coldCached := answers(cold)
			patchedHits += queued(s)
			got, cached := answers(s)
			flipped := monotone != (prog.current().nonMonotone == 0)
			if flipped {
				flips[btoi(monotone)]++
			}
			for i := range got {
				if u := i / len(probes) / len(modes); flipped && u < levels-1 && cached[i] && !coldCached[i] {
					t.Fatalf("program %d step %d: after %q flipped monotonicity, probe %q at %s/%s was served from the cache",
						n, step, clause, probes[i%len(probes)], workload.Level(u), modes[i/len(probes)%len(modes)])
				}
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("program %d step %d: after %q (retract=%v, the step's last write), probe %q at %s/%s answers %s, a cold server %s",
						n, step, clause, retract, probes[i%len(probes)], workload.Level(i/len(probes)/len(modes)),
						modes[i/len(probes)%len(modes)], got[i], want[i])
				}
				if cached[i] && !bytes.Equal(got[i], last[i]) {
					changedHits++
				}
				if i%len(probes) >= late && !bytes.Equal(got[i], none) {
					lateAnswers[btoi(i%len(probes) == len(probes)-1)]++
				}
			}
			last = got
		}
		st := s.Stats().Cache
		cachedServed += int(st.Hits)
		dropped += int(st.Invalidations)
	}
	// The shapes the oracle declares, apart from staleWriteMix so that a
	// shape dropped from the mix fails here.
	want := workload.Mix{workload.ConstantLevel: 1, workload.LevelVariable: 1, workload.ClassFromBody: 1, workload.PiReading: 1,
		workload.Fact: 1, workload.WriteDown: 1, workload.Retract: 1}
	for _, shape := range want.Report(t.Logf, drawn) {
		t.Errorf("no write of shape %s was drawn: the oracle does not cover it", shape)
	}
	t.Logf("%d writes (%d of rules, %d of %s) over %d programs checked at %d clearance×mode views; %d answers served from the cache, %d merging a patch, %d changed by it; %d entries dropped; %d and %d non-empty answers of the write heads and lv, undefined at load; %d steps made the program non-monotone, %d monotone again",
		applied, ruleWrites, drawn[staleLevelRule.Shape], staleLevelRule.Src, programs, levels*len(modes), cachedServed, patchedHits, changedHits, dropped, lateAnswers[0], lateAnswers[1], flips[1], flips[0])
	if applied < programs*steps/2 || ruleWrites < applied/4 || cachedServed == 0 || patchedHits == 0 || changedHits == 0 || dropped == 0 ||
		lateAnswers[0] == 0 || lateAnswers[1] == 0 || drawn[staleLevelRule.Shape] == 0 || flips[0] == 0 || flips[1] == 0 {
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
