package server

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/lattice"
)

// walkCache is the result cache as it stood before the reader index: an
// Invalidate walks the whole LRU and asks mayHaveChanged of every entry. It
// is the reference TestCacheIndexMatchesFullWalk holds the index to.
type walkCache struct {
	cap       int
	lru       *list.List // of *walkEntry, front = most recent
	by        map[string]*list.Element
	latest    map[string]uint64
	stale     map[string]*staleEntry
	keepStale bool

	hits, misses, evictions, invalidations int64
}

type walkEntry struct {
	key, db   string
	clearance lattice.Label
	epoch     uint64
	deps      []string
	answers   []byte
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
	return el.Value.(*walkEntry).answers, true
}

func (c *walkCache) Put(key, db string, clearance lattice.Label, epoch uint64, deps []string, answers []byte) {
	if epoch < c.latest[db] {
		return
	}
	delete(c.stale, key)
	if el, ok := c.by[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*walkEntry)
		ent.epoch, ent.deps, ent.answers = epoch, deps, answers
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.by, oldest.Value.(*walkEntry).key)
		c.evictions++
	}
	c.by[key] = c.lru.PushFront(&walkEntry{key: key, db: db, clearance: clearance, epoch: epoch, deps: deps, answers: answers})
}

func (c *walkCache) Invalidate(db string, epoch uint64, changed map[lattice.Label][]string) int {
	c.latest[db] = max(c.latest[db], epoch)
	touched := make(map[lattice.Label]map[string]bool, len(changed))
	for u, preds := range changed {
		touched[u] = make(map[string]bool, len(preds))
		for _, p := range preds {
			touched[u][p] = true
		}
	}
	n := 0
	now := time.Now()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*walkEntry)
		if ent.db == db && ent.epoch < epoch && mayHaveChanged(ent, touched) {
			c.lru.Remove(el)
			delete(c.by, ent.key)
			if c.keepStale {
				c.stale[ent.key] = &staleEntry{db: ent.db, at: now, epoch: epoch - 1, answers: ent.answers}
			}
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
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

// TestCacheIndexMatchesFullWalk drives the cache and the full-walk reference
// through the same random operations — Puts (re-Puts with new deps among
// them) at current and superseded epochs, Gets, evictions, Invalidates with
// nil, partial and full changed maps, Resets — over two databases and four
// clearances. After each, both hold the same entries in the same LRU order,
// count the same, returned the same, keep the same brownout copies, and the
// index holds exactly the live entries.
func TestCacheIndexMatchesFullWalk(t *testing.T) {
	dbs := []string{"d0", "d1"}
	clearances := []lattice.Label{"l0", "l1", "l2", "l3"}
	rels := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	seeds, ops := 40, 600
	if testing.Short() {
		seeds = 10
	}
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
		for op := 0; op < ops; op++ {
			db := dbs[r.Intn(len(dbs))]
			u := clearances[r.Intn(len(clearances))]
			key := cacheKey(db, c.Generation(db), string(u), "fir", fmt.Sprintf("q%d", r.Intn(10)))
			var what string
			switch k := r.Intn(20); {
			case k < 8:
				epoch := epochs[db] - uint64(r.Intn(int(min(epochs[db], 3))))
				deps := someRels()
				what = fmt.Sprintf("Put(%s, %d, %v)", key, epoch, deps)
				answers := []byte(what)
				c.Put(key, db, u, epoch, deps, answers)
				ref.Put(key, db, u, epoch, deps, answers)
			case k < 12:
				what = "Get(" + key + ")"
				a, ok := c.Get(key)
				b, refOK := ref.Get(key)
				if ok != refOK || string(a) != string(b) {
					t.Fatalf("seed %d op %d: %s = %q, %v; the full walk's %q, %v", seed, op, what, a, ok, b, refOK)
				}
			case k < 18:
				var changed map[lattice.Label][]string
				if r.Intn(4) > 0 {
					changed = map[lattice.Label][]string{}
					for _, u := range clearances {
						if r.Intn(4) > 0 {
							changed[u] = someRels()
						}
					}
				}
				epochs[db]++
				what = fmt.Sprintf("Invalidate(%s, %d, %v)", db, epochs[db], changed)
				// A full stale table evicts an arbitrary victim; empty, it
				// holds every entry one Invalidate can drop.
				clear(c.stale)
				clear(ref.stale)
				if n, want := c.Invalidate(db, epochs[db], changed), ref.Invalidate(db, epochs[db], changed); n != want {
					t.Fatalf("seed %d op %d: %s dropped %d, the full walk %d", seed, op, what, n, want)
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
			if got, want := [4]int64{st.Hits, st.Misses, st.Evictions, st.Invalidations}, [4]int64{ref.hits, ref.misses, ref.evictions, ref.invalidations}; got != want {
				t.Fatalf("seed %d op %d: after %s hits/misses/evictions/invalidations %v, the full walk %v", seed, op, what, got, want)
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
	}
}

// invalidateFixture is a cache holding n entries of one database, spread
// over four clearances, each reading two to four of 24 relations there, all
// computed at epoch 1.
func invalidateFixture(n int) *resultCache {
	c := newResultCache(n)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		u := lattice.Label(fmt.Sprintf("l%d", i%4))
		var deps []string
		for j := 2 + r.Intn(3); j > 0; j-- {
			deps = append(deps, fmt.Sprintf("mlrel_p%d_%s", r.Intn(24), u))
		}
		slices.Sort(deps)
		c.Put(cacheKey("db", 0, string(u), "fir", fmt.Sprintf("q%d", i)), "db", u, 1, slices.Compact(deps), ans("x"))
	}
	return c
}

// BenchmarkCacheInvalidate prices the invalidation of a write that advanced
// every clearance and changed relations no cached entry reads — rule_churn's
// rule write — at 1 000 and at 64 000 cached entries. It drops nothing, so
// its cost is the invalidation's own: flat in the entries when the write
// finds its readers through the index, in proportion to them when it walks
// the LRU (make bench-smoke gate 10).
func BenchmarkCacheInvalidate(b *testing.B) {
	for _, n := range []int{1000, 64000} {
		b.Run(fmt.Sprintf("entries=%dk", n/1000), func(b *testing.B) {
			c := invalidateFixture(n)
			changed := map[lattice.Label][]string{}
			for l := 0; l < 4; l++ {
				changed[lattice.Label(fmt.Sprintf("l%d", l))] = []string{fmt.Sprintf("churn0_l%d", l), fmt.Sprintf("mlrel_w_l%d", l)}
			}
			runtime.GC() // the fixture's garbage is set-up, not the write's
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Invalidate("db", uint64(i)+2, changed) != 0 {
					b.Fatal("the write dropped an entry that reads nothing it changed")
				}
			}
		})
	}
}

// BenchmarkCachePutEvict prices read_miss's cache insert: a Put of a new key
// into a full 4096-entry cache, which evicts the least recently used entry.
func BenchmarkCachePutEvict(b *testing.B) {
	const n = 4096
	c := invalidateFixture(n)
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
		c.Put(keys[j], "db", labels[j], 1, deps[j], answers)
	}
}
