package compile

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/datalog"
)

// CacheStats is a point-in-time snapshot of a plan cache's counters,
// surfaced on the server's /v1/stats and the REPL's \stats.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Compiles      int64 `json:"compiles"`
	Invalidations int64 `json:"invalidations"`
	CompileNS     int64 `json:"compile_ns"` // cumulative time spent compiling
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// Cache is an LRU plan cache keyed by (rule set hash, seed adornment).
// Plans depend only on a program's rules, so programs that differ in their
// facts alone share one; Invalidate drops plans by predicate set. Safe for
// concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recent

	hits, misses, compiles, invalidations, compileNS int64
}

type cacheEntry struct {
	key   string
	rules string // full canonical rule text: guards against hash collisions
	preds map[string]bool
	plan  *Plan
	elem  *list.Element
}

// NewCache builds a plan cache holding up to capacity plans (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
	return c
}

// DefaultCache serves EvalContext, and through it the server's cold builds.
var DefaultCache = NewCache(256)

// cacheKey derives the cache key and the canonical rule text for a
// program: an FNV-1a hash of the rules in clause order, suffixed with the
// seed adornment (bound/free pattern of each query, or "model" when the
// program has none — the full-model plan every query shares).
func cacheKey(p *datalog.Program) (key, rules string) {
	var b strings.Builder
	for _, c := range p.Clauses {
		if c.IsFact() {
			continue
		}
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	rules = b.String()
	h := fnv.New64a()
	h.Write([]byte(rules))
	return fmt.Sprintf("%016x/%s", h.Sum64(), adornKey(p.Queries)), rules
}

// adornKey renders the seed adornment of a query set: per query, the
// predicate with one letter per argument — b (bound: ground term) or f
// (free) — sorted and deduplicated so query order does not fragment the
// cache.
func adornKey(queries []datalog.Atom) string {
	if len(queries) == 0 {
		return "model"
	}
	pats := make([]string, 0, len(queries))
	for _, q := range queries {
		var b strings.Builder
		b.WriteString(q.Pred)
		b.WriteByte(':')
		for _, t := range q.Args {
			if t.IsGround() {
				b.WriteByte('b')
			} else {
				b.WriteByte('f')
			}
		}
		pats = append(pats, b.String())
	}
	sort.Strings(pats)
	out := pats[:1]
	for _, p := range pats[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

// Plan returns the compiled plan for a program's rules, compiling on miss.
// The second result reports a cache hit. Compile failures (including
// *ErrFallback) are not cached — callers that fall back re-ask rarely, and
// a rule write may make the program compilable.
func (c *Cache) Plan(p *datalog.Program) (*Plan, bool, error) {
	key, rules := cacheKey(p)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.rules == rules {
		c.hits++
		c.lru.MoveToFront(e.elem)
		pl := e.plan
		c.mu.Unlock()
		return pl, true, nil
	}
	c.misses++
	c.mu.Unlock()

	start := time.Now()
	pl, err := Compile(p)
	elapsed := time.Since(start).Nanoseconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compiles++
	c.compileNS += elapsed
	if err != nil {
		return nil, false, err
	}
	preds := make(map[string]bool)
	for _, name := range pl.Predicates() {
		preds[name] = true
	}
	if old, ok := c.entries[key]; ok {
		// Lost a race (or a hash collision): replace the entry in place.
		c.lru.Remove(old.elem)
	}
	e := &cacheEntry{key: key, rules: rules, preds: preds, plan: pl}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.cap {
		back := c.lru.Back()
		ev := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
	}
	return pl, false, nil
}

// Invalidate drops every cached plan referencing any of the given
// predicate names and returns how many plans were dropped. An empty set
// drops nothing. No write calls it: a write compiles nothing.
func (c *Cache) Invalidate(preds []string) int {
	if len(preds) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key, e := range c.entries {
		hit := false
		for _, p := range preds {
			if e.preds[p] {
				hit = true
				break
			}
		}
		if hit {
			c.lru.Remove(e.elem)
			delete(c.entries, key)
			dropped++
		}
	}
	c.invalidations += int64(dropped)
	return dropped
}

// InvalidateAll empties the cache and returns how many plans were dropped.
func (c *Cache) InvalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := len(c.entries)
	c.entries = make(map[string]*cacheEntry)
	c.lru.Init()
	c.invalidations += int64(dropped)
	return dropped
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Compiles:      c.compiles,
		Invalidations: c.invalidations,
		CompileNS:     c.compileNS,
		Entries:       len(c.entries),
		Capacity:      c.cap,
	}
}
