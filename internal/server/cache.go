package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"time"
)

// resultCache is the invalidating answer cache: finished (complete,
// untruncated) query results keyed by (database, generation, clearance,
// belief mode, effective query). Bounded LRU; all methods are safe for
// concurrent use.
//
// Staleness is tracked per predicate, not per program epoch: each entry
// records the translated predicates its answers were derived from (its dep
// set) and the epoch of the snapshot it was computed against. A write
// invalidates by predicate set (InvalidatePreds) — entries whose deps are
// disjoint from the write's impact survive — and records the invalidation
// epoch in a per-database epoch vector, so a Put racing with the write (a
// query that evaluated against the pre-write snapshot but stores its answer
// after the invalidation ran) is rejected by the epoch gate instead of
// resurrecting stale answers. Reset (program load/replace) bumps the
// database's generation, making every old key unreachable regardless of
// timing.
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
	answers []map[string]string
}

// dbEpochs is one database's invalidation state: the load generation (part
// of every key) and the epoch vector recording, per translated predicate,
// the epoch of the last write that touched it.
type dbEpochs struct {
	gen   uint64
	all   uint64            // epoch of the last whole-database invalidation
	preds map[string]uint64 // translated predicate -> last invalidation epoch
}

type cacheEntry struct {
	key     string
	db      string
	epoch   uint64   // snapshot epoch the answers were computed at
	deps    []string // translated predicates the answers depend on
	answers []map[string]string
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
func (c *resultCache) GetStale(key string, maxAge time.Duration) (answers []map[string]string, epoch uint64, age time.Duration, ok bool) {
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
		e = &dbEpochs{preds: map[string]uint64{}}
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

// Get returns the cached answers for key, if present.
func (c *resultCache) Get(key string) ([]map[string]string, bool) {
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

// Put stores a complete result computed at the given snapshot epoch with
// the given dep set, evicting the least recently used entry when full.
// Callers must not cache truncated or erroneous results. The store is
// refused when an invalidation newer than epoch has touched any dep (or the
// whole database): the caller computed against a snapshot a write has since
// superseded.
func (c *resultCache) Put(key, db string, epoch uint64, deps []string, answers []map[string]string) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	if epoch < e.all {
		return
	}
	for _, d := range deps {
		if e.preds[d] > epoch {
			return
		}
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
	c.by[key] = c.lru.PushFront(&cacheEntry{key: key, db: db, epoch: epoch, deps: deps, answers: answers})
}

// InvalidatePreds drops every entry of db older than epoch whose dep set
// intersects preds, records epoch in the predicate epoch vector, and
// returns how many entries were dropped. Entries with no recorded deps are
// treated as depending on everything.
func (c *resultCache) InvalidatePreds(db string, epoch uint64, preds []string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	touched := make(map[string]bool, len(preds))
	for _, p := range preds {
		touched[p] = true
		if e.preds[p] < epoch {
			e.preds[p] = epoch
		}
	}
	n := 0
	now := time.Now()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.db == db && ent.epoch < epoch && dependsOn(ent.deps, touched) {
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

// dependsOn reports whether any dep is in touched; a nil/empty dep set is
// conservatively dependent.
func dependsOn(deps []string, touched map[string]bool) bool {
	if len(deps) == 0 {
		return true
	}
	for _, d := range deps {
		if touched[d] {
			return true
		}
	}
	return false
}

// InvalidateAll drops every entry of db older than epoch and raises the
// whole-database epoch floor, returning how many entries were dropped. The
// update path uses it when a write's impact cannot be bounded (rule
// changes).
func (c *resultCache) InvalidateAll(db string, epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	if e.all < epoch {
		e.all = epoch
	}
	n := 0
	now := time.Now()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.db == db && ent.epoch < epoch {
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

// Reset drops every entry of db, clears its epoch vector and bumps its
// generation; the load path calls it when a program is (re)installed, whose
// epochs restart and whose predicates mean new things.
func (c *resultCache) Reset(db string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	e.gen++
	e.all = 0
	e.preds = map[string]uint64{}
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
