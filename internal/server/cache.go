package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lattice"
)

// resultCache is the invalidating answer cache: finished (complete,
// untruncated) query results, held as the encoded JSON array of their
// answers that a response carries (Server.Query renders them once; a hit
// writes them unchanged), keyed by (database, generation, clearance, belief
// mode, effective query). Bounded LRU; all methods are safe for concurrent
// use. The stored bytes are shared by every reader and never modified.
//
// Staleness is decided per clearance, from what the write's advance changed
// there: each entry records its clearance, the translated relations its
// query reads (its deps) and the epoch of the snapshot it was computed
// against. A write drops the older entries whose deps meet the relations its
// advance changed at their clearance, and every older entry of a clearance it
// did not advance (Invalidate). It also raises the database's latest epoch,
// below which Put refuses: a query that evaluated against a superseded
// snapshot cannot store its answer after the write that superseded it. Reset
// (program load/replace) bumps the database's generation, making every old
// key unreachable regardless of timing.
type resultCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List               // front = most recent; values are *cacheEntry
	by  map[string]*list.Element // key -> element
	dbs map[string]*dbEpochs     // per-database invalidation state

	// keepStale retains invalidated entries in a bounded side table for
	// brownout serving (Config.MaxStale > 0): under shed, a read may be
	// answered from a recently invalidated entry instead of rejected.
	keepStale bool
	stale     map[string]*staleEntry

	hits, misses, evictions, invalidations int64
}

// staleEntry is a brownout candidate: answers an invalidation dropped,
// kept with the moment they went stale and the last epoch they were valid
// at, the one before the write that dropped them.
type staleEntry struct {
	db      string
	at      time.Time
	epoch   uint64
	answers []byte
}

// dbEpochs is one database's invalidation state: the load generation (part
// of every key) and the epoch of the latest write that invalidated.
type dbEpochs struct {
	gen    uint64
	latest uint64
}

type cacheEntry struct {
	key       string
	db        string
	clearance lattice.Label
	epoch     uint64   // snapshot epoch the answers were computed at
	deps      []string // translated relations the query reads (Reduction.QueryDeps)
	answers   []byte   // the encoded JSON array of the answers
}

// cacheKey builds the composite key. The components are length-prefixed so
// no crafted query string can collide across fields. gen is the database's
// load generation.
func cacheKey(db string, gen uint64, clearance, mode, query string) string {
	var b strings.Builder
	for _, part := range []string{db, strconv.FormatUint(gen, 10), clearance, mode, query} {
		b.WriteString(strconv.Itoa(len(part)))
		b.WriteByte(':')
		b.WriteString(part)
	}
	return b.String()
}

// newResultCache builds a cache holding up to capacity entries; capacity
// <= 0 disables caching (every Get misses, every Put is dropped).
func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, lru: list.New(), by: map[string]*list.Element{},
		dbs: map[string]*dbEpochs{}, stale: map[string]*staleEntry{}}
}

// retire moves an entry the write of epoch invalidated into the stale side
// table (bounded by the cache capacity; an arbitrary victim makes room).
// Callers hold c.mu.
func (c *resultCache) retire(ent *cacheEntry, now time.Time, epoch uint64) {
	if !c.keepStale {
		return
	}
	if len(c.stale) >= c.cap {
		for k := range c.stale {
			delete(c.stale, k)
			break
		}
	}
	c.stale[ent.key] = &staleEntry{db: ent.db, at: now, epoch: epoch - 1, answers: ent.answers}
}

// GetStale returns the invalidated answers previously stored under key, with
// the last epoch they were valid at, if they went stale no longer than maxAge
// ago — the brownout read. Entries past maxAge are dropped on probe.
func (c *resultCache) GetStale(key string, maxAge time.Duration) (answers []byte, epoch uint64, age time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.stale[key]
	if !ok {
		return nil, 0, 0, false
	}
	age = time.Since(ent.at)
	if age > maxAge {
		delete(c.stale, key)
		return nil, 0, 0, false
	}
	return ent.answers, ent.epoch, age, true
}

// epochs returns db's invalidation state, creating it on first use. Callers
// hold c.mu.
func (c *resultCache) epochs(db string) *dbEpochs {
	e := c.dbs[db]
	if e == nil {
		e = &dbEpochs{}
		c.dbs[db] = e
	}
	return e
}

// Generation returns db's current load generation for key construction.
func (c *resultCache) Generation(db string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochs(db).gen
}

// Get returns the encoded answers cached under key, if present.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.by[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).answers, true
}

// Put stores a complete result's encoded answers, computed at clearance on
// the snapshot of the given epoch, reading the relations deps, evicting the
// least recently used entry when full. Callers must not cache truncated or
// erroneous results.
// The store is refused when a write newer than epoch has invalidated: the
// caller computed against a snapshot that write superseded.
func (c *resultCache) Put(key, db string, clearance lattice.Label, epoch uint64, deps []string, answers []byte) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epochs(db).latest {
		return
	}
	delete(c.stale, key) // a fresh result supersedes any brownout copy
	if el, ok := c.by[key]; ok {
		c.lru.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.epoch, ent.deps, ent.answers = epoch, deps, answers
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.by, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.by[key] = c.lru.PushFront(&cacheEntry{key: key, db: db, clearance: clearance, epoch: epoch, deps: deps, answers: answers})
}

// Invalidate applies the write of epoch to db's entries and returns how many
// it dropped. changed holds, per clearance the write advanced, the translated
// relations whose tuples changed there (multilog.DeltaReport.ChangedPreds).
// An entry computed before epoch goes when its clearance is not in changed —
// cold at the write, dropped by it, or built while it ran — or when its deps
// meet that clearance's changed relations. Later Puts below epoch are refused.
func (c *resultCache) Invalidate(db string, epoch uint64, changed map[lattice.Label][]string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	e.latest = max(e.latest, epoch)
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
		ent := el.Value.(*cacheEntry)
		if ent.db == db && ent.epoch < epoch && mayHaveChanged(ent, touched) {
			c.lru.Remove(el)
			delete(c.by, ent.key)
			c.retire(ent, now, epoch)
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
}

// mayHaveChanged reports whether a write that touched these relations per
// clearance may have changed ent's answers.
func mayHaveChanged(ent *cacheEntry, touched map[lattice.Label]map[string]bool) bool {
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

// Reset drops every entry of db, clears its latest epoch and bumps its
// generation; the load path calls it when a program is (re)installed, whose
// epochs restart and whose predicates mean new things.
func (c *resultCache) Reset(db string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	e.gen++
	e.latest = 0
	// A reload changes what the predicates mean; its brownout copies are
	// not merely stale but wrong.
	for k, ent := range c.stale {
		if ent.db == db {
			delete(c.stale, k)
		}
	}
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.db == db {
			c.lru.Remove(el)
			delete(c.by, ent.key)
			n++
		}
		el = next
	}
	c.invalidations += int64(n)
	return n
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
	}
}
