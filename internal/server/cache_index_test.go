package server

import (
	"bytes"
	"container/list"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
	"repro/internal/term"
)

// walkCache is the result cache as it stood before the reader index: an
// Invalidate walks the whole LRU and asks mayHaveChanged of every entry. It
// is the reference TestCacheIndexMatchesFullWalk holds the index to. It
// patches eagerly: a write applies the answers its touching tuples add and
// delete to an entry's rows at once, and a Get renders them — what the
// cache's lazy queue must serve.
type walkCache struct {
	cap       int
	lru       *list.List // of *walkEntry, front = most recent
	by        map[string]*list.Element
	latest    map[string]uint64
	stale     map[string]*staleEntry
	keepStale bool

	hits, misses, evictions, invalidations, patched, overflows int64
}

type walkEntry struct {
	key, db   string
	clearance lattice.Label
	epoch     uint64
	deps      []string
	answers   []byte // as the last Get or Put left them

	// A patchable entry: its plan, its rows by answer key as the writes so
	// far left them, and the tuples queued since the last Get.
	plan   *multilog.PatchPlan
	rows   map[string]string
	queued int
}

// render is the JSON array of the rows, in key order.
func (ent *walkEntry) render() []byte {
	keys := make([]string, 0, len(ent.rows))
	for k := range ent.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = ent.rows[k]
	}
	return []byte("[" + strings.Join(out, ",") + "]")
}

// walkRows indexes the answers' JSON rows by key.
func walkRows(answers []multilog.Answer) map[string]string {
	out := map[string]string{}
	for _, a := range answers {
		row, _ := encodeAnswers([]multilog.Answer{a}, nil)
		out[a.Key] = string(row[1 : len(row)-1])
	}
	return out
}

// walkTouching is PatchPlan.Touching for a p-goal, written out: the changed
// tuples of goal's relation that agree with its ground arguments.
func walkTouching(goal datalog.Atom, changed map[string]datalog.PredDelta) (add, del []datalog.Atom) {
	agrees := func(ts []datalog.Atom) []datalog.Atom {
		var out []datalog.Atom
		for _, t := range ts {
			ok := true
			for i, a := range goal.Args {
				ok = ok && (a.IsVar() || a.Equal(t.Args[i]))
			}
			if ok {
				out = append(out, t)
			}
		}
		return out
	}
	pd := changed[goal.Pred]
	return agrees(pd.Added), agrees(pd.Deleted)
}

func newWalkCache(capacity int) *walkCache {
	return &walkCache{cap: capacity, lru: list.New(), by: map[string]*list.Element{},
		latest: map[string]uint64{}, stale: map[string]*staleEntry{}, keepStale: true}
}

func (c *walkCache) Get(key string) ([]byte, bool) {
	el, ok := c.by[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	ent := el.Value.(*walkEntry)
	if ent.queued > 0 {
		ent.answers, ent.queued = ent.render(), 0
	}
	return ent.answers, true
}

// Put stores answers; rows, non-nil for a patchable entry, are the same
// answers by key.
func (c *walkCache) Put(key, db string, clearance lattice.Label, epoch uint64, deps []string, answers []byte, plan *multilog.PatchPlan, rows map[string]string) {
	if epoch < c.latest[db] {
		return
	}
	delete(c.stale, key)
	if el, ok := c.by[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*walkEntry)
		ent.epoch, ent.deps, ent.answers = epoch, deps, answers
		ent.plan, ent.rows, ent.queued = plan, rows, 0
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.by, oldest.Value.(*walkEntry).key)
		c.evictions++
	}
	c.by[key] = c.lru.PushFront(&walkEntry{key: key, db: db, clearance: clearance, epoch: epoch, deps: deps, answers: answers,
		plan: plan, rows: rows})
}

// Invalidate drops an older entry whose clearance the write did not advance
// or whose deps meet what it changed there — unless the entry is patchable
// and the advance reported tuples: then the answers its touching tuples
// (walkTouching) delete and add are applied to its rows, at most maxPending
// tuples between two Gets (past that it is dropped), and the goals are the
// p-goals planFixture plans.
func (c *walkCache) Invalidate(db string, epoch uint64, changed map[lattice.Label]multilog.DeltaReport, goals map[*multilog.PatchPlan]datalog.Atom) (dropped, patched int) {
	c.latest[db] = max(c.latest[db], epoch)
	touched := make(map[lattice.Label]map[string]bool, len(changed))
	for u, rep := range changed {
		touched[u] = make(map[string]bool, len(rep.ChangedPreds))
		for _, p := range rep.ChangedPreds {
			touched[u][p] = true
		}
	}
	now := time.Now()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*walkEntry)
		el = next
		if ent.db != db || ent.epoch >= epoch || !mayHaveChanged(ent, touched) {
			continue
		}
		if delta := changed[ent.clearance].Changed; ent.plan != nil && delta != nil {
			add, del := walkTouching(goals[ent.plan], delta)
			n := len(add) + len(del)
			if n == 0 {
				ent.epoch = epoch
				continue
			}
			if ent.queued+n <= maxPending {
				for _, a := range ent.plan.Answers(del) {
					delete(ent.rows, a.Key)
				}
				maps.Copy(ent.rows, walkRows(ent.plan.Answers(add)))
				ent.epoch, ent.queued = epoch, ent.queued+n
				patched++
				continue
			}
			c.overflows++
		}
		c.lru.Remove(c.by[ent.key])
		delete(c.by, ent.key)
		if c.keepStale {
			if ent.queued > 0 {
				ent.answers = ent.render()
			}
			c.stale[ent.key] = &staleEntry{db: ent.db, at: now, epoch: epoch - 1, answers: ent.answers}
		}
		dropped++
	}
	c.invalidations += int64(dropped)
	c.patched += int64(patched)
	return dropped, patched
}

// mayHaveChanged reports whether a write that touched these relations per
// clearance may have changed ent's answers.
func mayHaveChanged(ent *walkEntry, touched map[lattice.Label]map[string]bool) bool {
	preds, advanced := touched[ent.clearance]
	if !advanced {
		return true
	}
	for _, d := range ent.deps {
		if preds[d] {
			return true
		}
	}
	return false
}

func (c *walkCache) Reset(db string) int {
	c.latest[db] = 0
	for k, ent := range c.stale {
		if ent.db == db {
			delete(c.stale, k)
		}
	}
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*walkEntry); ent.db == db {
			c.lru.Remove(el)
			delete(c.by, ent.key)
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
}

// checkIndexHoldsLive fails unless c's reader index holds exactly its live
// entries: under each clearance every live entry of it once, under each
// (clearance, relation) every live entry reading it once per dep; the rest
// of each list gone entries, counted, and no more of them than live ones.
func checkIndexHoldsLive(t *testing.T, c *resultCache) {
	t.Helper()
	type multiset = map[*cacheEntry]int
	add := func(m multiset, ent *cacheEntry) multiset {
		if m == nil {
			m = multiset{}
		}
		m[ent]++
		return m
	}
	for name, e := range c.dbs {
		wantAll := map[lattice.Label]multiset{}
		wantRel := map[lattice.Label]map[string]multiset{}
		for ent := c.lru.next; ent != &c.lru; ent = ent.next {
			if ent.db != name {
				continue
			}
			if ent.gone || c.by[ent.key] != ent || ent.idx != e {
				t.Fatalf("live entry %q: gone %v, keyed %v, index %p of %p", ent.key, ent.gone, c.by[ent.key] == ent, ent.idx, e)
			}
			u := ent.clearance
			wantAll[u] = add(wantAll[u], ent)
			if wantRel[u] == nil {
				wantRel[u] = map[string]multiset{}
			}
			for _, d := range ent.deps {
				wantRel[u][d] = add(wantRel[u][d], ent)
			}
		}
		refs, dead := 0, 0
		live := func(l *readers) multiset {
			var got multiset
			refs += len(l.ents)
			for _, ent := range l.ents {
				if ent.gone {
					dead++
				} else {
					got = add(got, ent)
				}
			}
			return got
		}
		for u, cr := range e.readers {
			if got := live(&cr.all); !reflect.DeepEqual(got, wantAll[u]) {
				t.Fatalf("%s: the index lists %d live entries at %s, want %d", name, len(got), u, len(wantAll[u]))
			}
			for rel, l := range cr.byRel {
				if got := live(l); !reflect.DeepEqual(got, wantRel[u][rel]) {
					t.Fatalf("%s: the index lists %d live readers of %s at %s, want %d", name, len(got), rel, u, len(wantRel[u][rel]))
				}
				delete(wantRel[u], rel)
			}
			if len(wantRel[u]) > 0 {
				t.Fatalf("%s: live readers at %s missing from the index: %v", name, u, wantRel[u])
			}
			delete(wantAll, u)
		}
		if len(wantAll) > 0 {
			t.Fatalf("%s: live entries missing from the index: %v", name, wantAll)
		}
		if refs != e.refs || dead != e.dead {
			t.Fatalf("%s: the index holds %d references, %d dead; it counts %d, %d dead", name, refs, dead, e.refs, e.dead)
		}
		if dead > refs-dead {
			t.Fatalf("%s: %d dead references outnumber %d live ones after an operation", name, dead, refs-dead)
		}
	}
}

// planFixture plans, at each clearance of a four-level chain, the p-goal
// queries r<i>(X, Y) for even i and r<i>(X, c1) for odd i over six
// relations, and returns each plan's goal as an atom.
func planFixture(tb testing.TB) (map[lattice.Label][]*multilog.PatchPlan, map[*multilog.PatchPlan]datalog.Atom) {
	tb.Helper()
	db, err := multilog.Parse(`level(l0). level(l1). level(l2). level(l3).
		order(l0, l1). order(l1, l2). order(l2, l3).`)
	if err != nil {
		tb.Fatal(err)
	}
	plans, goals := map[lattice.Label][]*multilog.PatchPlan{}, map[*multilog.PatchPlan]datalog.Atom{}
	for _, u := range []lattice.Label{"l0", "l1", "l2", "l3"} {
		red, err := multilog.Reduce(db, u)
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			second := "Y"
			if i%2 == 1 {
				second = "c1"
			}
			q, err := multilog.ParseGoals(fmt.Sprintf("r%d(X, %s)", i, second))
			if err != nil {
				tb.Fatal(err)
			}
			plan := red.PatchPlan(q)
			if plan == nil {
				tb.Fatalf("%s is not patchable", multilog.Query(q))
			}
			plans[u] = append(plans[u], plan)
			goals[plan] = q[0].P
		}
	}
	return plans, goals
}

// tuple is the relation's fact over constants c<a> and c<b>.
func tuple(rel string, a, b int) datalog.Atom {
	return datalog.Atom{Pred: rel, Args: []term.Term{term.Const(fmt.Sprintf("c%d", a)), term.Const(fmt.Sprintf("c%d", b))}}
}

// TestCacheIndexMatchesFullWalk drives the cache and the full-walk reference
// through the same random operations — Puts (re-Puts with new deps among
// them) at current and superseded epochs, of entries a write can patch and
// of others, Gets, evictions, Invalidates with nil, partial and full changed
// maps and random tuple deltas, Resets — over two databases and four
// clearances. After each, both hold the same entries in the same LRU order,
// count the same, returned the same, keep the same brownout copies, and the
// index holds exactly the live entries. It logs how many patched entries
// were served, and fails if none were, or none were dropped for overflow.
func TestCacheIndexMatchesFullWalk(t *testing.T) {
	dbs := []string{"d0", "d1"}
	clearances := []lattice.Label{"l0", "l1", "l2", "l3"}
	rels := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	plans, goals := planFixture(t)
	seeds, ops := 40, 600
	if testing.Short() {
		seeds = 10
	}
	var patchedHits, patched, overflows int64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		c, ref := newResultCache(24), newWalkCache(24)
		c.keepStale = true
		epochs := map[string]uint64{"d0": 1, "d1": 1}
		someRels := func() []string {
			var out []string
			for _, rel := range rels {
				if r.Intn(3) == 0 {
					out = append(out, rel)
				}
			}
			return out
		}
		// someTuples draws up to n distinct facts of rel over c0…c<dom-1>.
		someTuples := func(rel string, n, dom int, skip map[string]bool) []datalog.Atom {
			var out []datalog.Atom
			for k := r.Intn(n + 1); k > 0; k-- {
				a := tuple(rel, r.Intn(dom), r.Intn(dom))
				if !skip[a.String()] {
					skip[a.String()] = true
					out = append(out, a)
				}
			}
			return out
		}
		for op := 0; op < ops; op++ {
			db := dbs[r.Intn(len(dbs))]
			u := clearances[r.Intn(len(clearances))]
			qi := r.Intn(10)
			key := cacheKey(db, c.Generation(db), string(u), "fir", fmt.Sprintf("q%d", qi))
			var what string
			switch k := r.Intn(20); {
			case k < 6:
				epoch := epochs[db] - uint64(r.Intn(int(min(epochs[db], 3))))
				if qi < len(rels)-1 {
					// A patchable query over r<qi>: its answers from some facts.
					plan := plans[u][qi]
					found := plan.Answers(someTuples(rels[qi], 8, 4, map[string]bool{}))
					answers, rows := encodeAnswers(found, plan)
					what = fmt.Sprintf("Put(%s, %d, patchable, %s)", key, epoch, answers)
					c.Put(key, db, u, epoch, []string{rels[qi]}, answers, rows)
					ref.Put(key, db, u, epoch, []string{rels[qi]}, answers, plan, walkRows(found))
					break
				}
				deps := someRels()
				what = fmt.Sprintf("Put(%s, %d, %v)", key, epoch, deps)
				answers := []byte(what)
				c.Put(key, db, u, epoch, deps, answers, answerRows{})
				ref.Put(key, db, u, epoch, deps, answers, nil, nil)
			case k < 12:
				if k%2 == 0 && len(c.by) > 0 {
					// Half the Gets ask for a cached key, the most recent
					// but a random number.
					ent := c.lru.next
					for skip := r.Intn(len(c.by)); skip > 0; skip-- {
						ent = ent.next
					}
					key = ent.key
				}
				what = "Get(" + key + ")"
				if ent := c.by[key]; ent != nil && len(ent.pending) > 0 {
					patchedHits++
				}

				a, ok := c.Get(key)
				b, refOK := ref.Get(key)
				if ok != refOK || string(a) != string(b) {
					t.Fatalf("seed %d op %d: %s = %q, %v; the full walk's %q, %v", seed, op, what, a, ok, b, refOK)
				}
			case k < 18:
				var changed map[lattice.Label]multilog.DeltaReport
				if r.Intn(8) > 0 {
					changed = map[lattice.Label]multilog.DeltaReport{}
					for _, u := range clearances {
						if r.Intn(8) == 0 {
							continue
						}
						rep := multilog.DeltaReport{ChangedPreds: someRels()}
						if r.Intn(5) > 0 {
							// The net tuples: a rare write adds or deletes more
							// than an entry may queue.
							n, dom := 3, 4
							if r.Intn(20) == 0 {
								n, dom = 2*maxPending, 32
							}
							rep.Changed = map[string]datalog.PredDelta{}
							for _, rel := range rep.ChangedPreds {
								seen := map[string]bool{}
								rep.Changed[rel] = datalog.PredDelta{Added: someTuples(rel, n, dom, seen), Deleted: someTuples(rel, n, dom, seen)}
							}
						}
						changed[u] = rep
					}
				}
				epochs[db]++
				what = fmt.Sprintf("Invalidate(%s, %d, %v)", db, epochs[db], changed)
				// A full stale table evicts an arbitrary victim; empty, it
				// holds every entry one Invalidate can drop.
				clear(c.stale)
				clear(ref.stale)
				n, p := c.Invalidate(db, epochs[db], changed)
				if wantN, wantP := ref.Invalidate(db, epochs[db], changed, goals); n != wantN || p != wantP {
					t.Fatalf("seed %d op %d: %s dropped %d and patched %d, the full walk %d and %d", seed, op, what, n, p, wantN, wantP)
				}
			default:
				epochs[db] = 1
				what = "Reset(" + db + ")"
				if n, want := c.Reset(db), ref.Reset(db); n != want {
					t.Fatalf("seed %d op %d: %s dropped %d, the full walk %d", seed, op, what, n, want)
				}
			}
			var keys, refKeys []string
			for ent := c.lru.next; ent != &c.lru; ent = ent.next {
				keys = append(keys, ent.key)
			}
			for el := ref.lru.Front(); el != nil; el = el.Next() {
				refKeys = append(refKeys, el.Value.(*walkEntry).key)
			}
			if !slices.Equal(keys, refKeys) {
				t.Fatalf("seed %d op %d: after %s the cache holds\n%v\nthe full walk\n%v", seed, op, what, keys, refKeys)
			}
			st := c.Stats()
			got := [6]int64{st.Hits, st.Misses, st.Evictions, st.Invalidations, st.Patched, st.PatchOverflow}
			if want := [6]int64{ref.hits, ref.misses, ref.evictions, ref.invalidations, ref.patched, ref.overflows}; got != want {
				t.Fatalf("seed %d op %d: after %s hits/misses/evictions/invalidations/patched/overflows %v, the full walk %v", seed, op, what, got, want)
			}
			if len(c.stale) != len(ref.stale) {
				t.Fatalf("seed %d op %d: after %s %d brownout copies, the full walk %d", seed, op, what, len(c.stale), len(ref.stale))
			}
			for k, s := range c.stale {
				if w := ref.stale[k]; w == nil || w.db != s.db || w.epoch != s.epoch || string(w.answers) != string(s.answers) {
					t.Fatalf("seed %d op %d: after %s brownout copy %q differs from the full walk's", seed, op, what, k)
				}
			}
			checkIndexHoldsLive(t, c)
		}
		st := c.Stats()
		patched, overflows = patched+st.Patched, overflows+st.PatchOverflow
	}
	t.Logf("%d entries patched, %d hits merged their queue, %d dropped for overflow", patched, patchedHits, overflows)
	if patchedHits == 0 || overflows == 0 {
		t.Fatal("the random operations never served a patched entry or never overflowed a queue")
	}
}

// invalidateFixture is a cache holding n entries of one database, spread
// over four clearances, all computed at epoch 1: each reading two to four of
// 24 relations there, or with plans, each a patchable query over one of the
// six relations planFixture plans, answered by three rows.
func invalidateFixture(tb testing.TB, n int, patchable bool) *resultCache {
	c := newResultCache(n)
	r := rand.New(rand.NewSource(1))
	var plans map[lattice.Label][]*multilog.PatchPlan
	if patchable {
		plans, _ = planFixture(tb)
	}
	for i := 0; i < n; i++ {
		u := lattice.Label(fmt.Sprintf("l%d", i%4))
		key := cacheKey("db", 0, string(u), "fir", fmt.Sprintf("q%d", i))
		if patchable {
			rel := i / 4 % 6
			plan := plans[u][rel]
			answers, rows := encodeAnswers(plan.Answers([]datalog.Atom{tuple(fmt.Sprint("r", rel), 0, 1), tuple(fmt.Sprint("r", rel), 2, 1), tuple(fmt.Sprint("r", rel), 3, 1)}), plan)
			c.Put(key, "db", u, 1, []string{fmt.Sprint("r", rel)}, answers, rows)
			continue
		}
		var deps []string
		for j := 2 + r.Intn(3); j > 0; j-- {
			deps = append(deps, fmt.Sprintf("mlrel_p%d_%s", r.Intn(24), u))
		}
		slices.Sort(deps)
		c.Put(key, "db", u, 1, slices.Compact(deps), ans("x"), answerRows{})
	}
	return c
}

// BenchmarkCacheInvalidate prices the invalidation of a write that advanced
// every clearance and changed relations no cached entry reads — rule_churn's
// rule write — at 1 000 and at 64 000 cached entries, of queries no delta
// patches and, in the patchable arm, of single-goal queries that could be. It
// drops and patches nothing, so its cost is the invalidation's own: flat in
// the entries when the write finds its readers through the index and an
// entry it does not touch costs it nothing, in proportion to them when it
// walks the LRU or visits every patchable entry (make bench-smoke gates 10
// and 12).
func BenchmarkCacheInvalidate(b *testing.B) {
	for _, patchable := range []bool{false, true} {
		for _, n := range []int{1000, 64000} {
			name := fmt.Sprintf("entries=%dk", n/1000)
			if patchable {
				name = "patchable/" + name
			}
			b.Run(name, func(b *testing.B) {
				c := invalidateFixture(b, n, patchable)
				changed := map[lattice.Label]multilog.DeltaReport{}
				for l := 0; l < 4; l++ {
					churn, w := fmt.Sprintf("churn0_l%d", l), fmt.Sprintf("mlrel_w_l%d", l)
					changed[lattice.Label(fmt.Sprintf("l%d", l))] = multilog.DeltaReport{ChangedPreds: []string{churn, w},
						Changed: map[string]datalog.PredDelta{churn: {Added: []datalog.Atom{tuple(churn, 0, 0)}}, w: {Deleted: []datalog.Atom{tuple(w, 0, 0)}}}}
				}
				runtime.GC() // the fixture's garbage is set-up, not the write's
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if n, p := c.Invalidate("db", uint64(i)+2, changed); n+p != 0 {
						b.Fatal("the write dropped or patched an entry that reads nothing it changed")
					}
				}
			})
		}
	}
}

// BenchmarkCachePutEvict prices read_miss's cache insert: a Put of a new key
// into a full 4096-entry cache, which evicts the least recently used entry.
func BenchmarkCachePutEvict(b *testing.B) {
	const n = 4096
	c := invalidateFixture(b, n, false)
	keys := make([]string, 4*n)
	labels := make([]lattice.Label, len(keys))
	deps := make([][]string, len(keys))
	for i := range keys {
		labels[i] = lattice.Label(fmt.Sprintf("l%d", i%4))
		keys[i] = cacheKey("db", 0, string(labels[i]), "opt", fmt.Sprintf("m%d", i))
		deps[i] = []string{fmt.Sprintf("mlrel_p%d_%s", i%24, labels[i]), fmt.Sprintf("mlrel_p%d_%s", (i+7)%24, labels[i])}
	}
	answers := ans("y")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		c.Put(keys[j], "db", labels[j], 1, deps[j], answers, answerRows{})
	}
}

// TestPatchedGetAllocsFlatInRows: a write that adds or deletes one answer of
// a cached entry, and the hit that merges it, allocate as much at 1 000 rows
// as at 10: the merge writes the rows into one new array, key arena and
// offset slice whatever their number, and matches the written tuple alone
// (make bench-smoke gate 12).
func TestPatchedGetAllocsFlatInRows(t *testing.T) {
	plans, _ := planFixture(t)
	plan := plans["l0"][0] // r0(X, Y)
	// Keys past 32 bytes: a []byte to string conversion of one would
	// allocate off the stack.
	long := func(i, j int) datalog.Atom {
		return datalog.Atom{Pred: "r0", Args: []term.Term{term.Const(fmt.Sprintf("a-key-long-enough-to-leave-the-stack-%d", i)), term.Const(fmt.Sprint("c", j))}}
	}
	perPatch := func(rows int) float64 {
		var tuples []datalog.Atom
		for i := 0; i < rows; i++ {
			tuples = append(tuples, long(i, 0))
		}
		c, key := newResultCache(4), cacheKey("db", 0, "l0", "fir", "q")
		answers, index := encodeAnswers(plan.Answers(tuples), plan)
		c.Put(key, "db", "l0", 1, []string{"r0"}, answers, index)
		toggled := []datalog.Atom{long(rows/2, 1)} // in the middle of the rows
		epoch := uint64(1)
		return testing.AllocsPerRun(200, func() {
			epoch++
			delta := datalog.PredDelta{Added: toggled}
			if epoch%2 == 1 {
				delta = datalog.PredDelta{Deleted: toggled}
			}
			if _, patched := c.Invalidate("db", epoch, map[lattice.Label]multilog.DeltaReport{
				"l0": {ChangedPreds: []string{"r0"}, Changed: map[string]datalog.PredDelta{"r0": delta}},
			}); patched != 1 {
				t.Fatalf("the write patched %d entries, want 1", patched)
			}
			answers, ok := c.Get(key)
			if want := rows + int(1-epoch%2); !ok || bytes.Count(answers, []byte("},{"))+1 != want {
				t.Fatalf("the patched hit answers %d rows (hit %v), want %d", bytes.Count(answers, []byte("},{"))+1, ok, want)
			}
		})
	}
	small, large := perPatch(10), perPatch(1000)
	t.Logf("allocations per patched write and hit: %.0f at 10 rows, %.0f at 1000 (%.2fx)", small, large, large/small)
	if large > 1.25*small {
		t.Fatalf("a patched hit of 1000 rows allocates %.0f, %.2fx the %.0f of 10 rows: the merge grows with the entry", large, large/small, small)
	}
}
