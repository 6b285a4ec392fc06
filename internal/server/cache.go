package server

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/multilog"
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
// against. A write patches or drops the older entries whose deps meet the
// relations its advance changed at their clearance, and drops every older
// entry of a clearance it did not advance (Invalidate). An entry with a
// multilog.PatchPlan queues the tuples of the write's net delta that touch
// it, and its next Get merges their rows into new bytes. Writes reach the
// cache in epoch order (preparedProgram.update), so a queue is in the order
// of its writes. A write also raises the database's latest epoch, below
// which Put refuses: a query that evaluated against a superseded snapshot
// cannot store its answer after the write that superseded it. Reset
// (program load/replace) bumps the database's generation, making every old
// key unreachable regardless of timing.
//
// A write finds what it patches or drops through the reader index
// (dbEpochs), never by walking the LRU: its cost follows the entries that
// read what it changed, not the entries cached.
type resultCache struct {
	mu  sync.Mutex
	cap int
	lru cacheEntry             // the recency ring's sentinel: lru.next is the most recent entry
	by  map[string]*cacheEntry // key -> entry, each in the ring
	dbs map[string]*dbEpochs   // per-database invalidation state

	// keepStale retains invalidated entries in a bounded side table for
	// brownout serving (Config.MaxStale > 0): under shed, a read may be
	// answered from a recently invalidated entry instead of rejected.
	keepStale bool
	stale     map[string]*staleEntry

	hits, misses, evictions, invalidations int64
	patched, overflows                     int64
}

// maxPending bounds the tuples an entry queues between two Gets; a write
// that would pass it drops the entry (a patch_overflow). A queue pins a few
// dozen tuples at most, and a patch costs less than the match it saves.
const maxPending = 64

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
// of every key), the epoch of the latest write that invalidated, and the
// reader index of its entries. The index lists every entry under its
// clearance — the list a write that did not advance that clearance drops
// whole — and under (clearance, relation) for each relation in its deps.
// Lists are append-only: a dropped entry is flagged gone where it stands, and
// every list is swept once the references to gone entries outnumber the live
// ones, so a drop costs O(1) and a sweep is paid for by the drops before it.
type dbEpochs struct {
	gen    uint64
	latest uint64

	readers    map[lattice.Label]*clearanceReaders
	refs, dead int // references the lists hold; of those, to gone entries
}

// clearanceReaders is the reader index of one clearance: its entries, and by
// translated relation the entries that read it. Keyed by clearance and then
// by relation, a Put hashes each dep's name alone.
type clearanceReaders struct {
	all   readers
	byRel map[string]*readers
}

// readers is one reader-index list.
type readers struct{ ents []*cacheEntry }

type cacheEntry struct {
	key       string
	db        string
	idx       *dbEpochs // db's state, whose reader index lists the entry
	clearance lattice.Label
	epoch     uint64   // snapshot epoch the answers, with pending merged, hold at
	deps      []string // translated relations the query reads (Reduction.QueryDeps)
	answers   []byte   // the encoded JSON array of the answers
	answerRows
	pending []patchDelta // the writes' touching tuples since the last merge, oldest first
	queued  int          // tuples in pending

	prev, next *cacheEntry // neighbours in the recency ring
	gone       bool        // dropped from the ring; its index references are dead
}

// answerRows lets a write patch an entry: the query's plan (nil when no delta
// can patch it) and the answers' row index, pointer-free so it adds no GC
// mark work — ends holds per answer, in order, the end of its key
// (multilog.Answer.Key, which orders them) in keys and of its row in the JSON.
type answerRows struct {
	plan *multilog.PatchPlan
	keys []byte
	ends []int32
}

// row returns the key and the JSON row of answer i of n.
func (r *answerRows) row(answers []byte, i int) (key, row []byte) {
	keyAt, rowAt := int32(0), int32(1) // past the array's '['
	if i > 0 {
		keyAt, rowAt = r.ends[2*i-2], r.ends[2*i-1]+1 // past the ','
	}
	return r.keys[keyAt:r.ends[2*i]], answers[rowAt:r.ends[2*i+1]]
}

// patchDelta is one write's tuples that touch an entry (PatchPlan.Touching).
type patchDelta struct{ add, del []datalog.Atom }

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
	c := &resultCache{cap: capacity, by: map[string]*cacheEntry{},
		dbs: map[string]*dbEpochs{}, stale: map[string]*staleEntry{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// link puts ent at the front of the recency ring. Callers hold c.mu.
func (c *resultCache) link(ent *cacheEntry) {
	ent.prev, ent.next = &c.lru, c.lru.next
	ent.prev.next, ent.next.prev = ent, ent
}

// unlink takes ent out of the recency ring. Callers hold c.mu.
func (c *resultCache) unlink(ent *cacheEntry) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	ent.prev, ent.next = nil, nil
}

// retire moves an entry the write of epoch invalidated into the stale side
// table (bounded by the cache capacity; an arbitrary victim makes room),
// its queued writes merged. Callers hold c.mu.
func (c *resultCache) retire(ent *cacheEntry, now time.Time, epoch uint64) {
	if !c.keepStale {
		return
	}
	if len(ent.pending) > 0 {
		ent.merge()
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
		e = &dbEpochs{readers: map[lattice.Label]*clearanceReaders{}}
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

// Get returns the encoded answers cached under key, if present, merging the
// rows of the writes the entry has queued first.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.by[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.unlink(ent)
	c.link(ent)
	if len(ent.pending) > 0 {
		ent.merge()
	}
	return ent.answers, true
}

// rowOp is a queued answer: an added one's row, or a deleted one's key alone.
type rowOp struct{ key, row []byte }

// merge applies the answers the pending deltas' tuples add and delete
// (PatchPlan.Answers), the last write to change an answer deciding it, into
// new bytes and a new row index; readers may hold the old. Callers hold c.mu.
func (ent *cacheEntry) merge() {
	var ops []rowOp
	grow, growKeys := 0, 0
	for _, d := range ent.pending {
		for _, a := range ent.plan.Answers(d.del) {
			ops = append(ops, rowOp{key: []byte(a.Key)})
		}
		added := ent.plan.Answers(d.add)
		json, rows := encodeAnswers(added, ent.plan)
		for i := range added {
			key, row := rows.row(json, i)
			ops = append(ops, rowOp{key, row})
			grow, growKeys = grow+len(row)+1, growKeys+len(key)
		}
	}
	ent.pending, ent.queued = nil, 0
	slices.SortStableFunc(ops, func(a, b rowOp) int { return bytes.Compare(a.key, b.key) })

	n := len(ent.ends) / 2
	out := append(make([]byte, 0, len(ent.answers)+grow), '[')
	next := answerRows{plan: ent.plan,
		keys: make([]byte, 0, len(ent.keys)+growKeys), ends: make([]int32, 0, len(ent.ends)+2*len(ops))}
	put := func(key, row []byte) {
		if len(next.ends) > 0 {
			out = append(out, ',')
		}
		out = append(out, row...)
		next.keys = append(next.keys, key...)
		next.ends = append(next.ends, int32(len(next.keys)), int32(len(out)))
	}
	i := 0
	for j := 0; j < len(ops); j++ {
		op := ops[j]
		if j+1 < len(ops) && bytes.Equal(ops[j+1].key, op.key) {
			continue // a later write changed this answer again
		}
		for ; i < n; i++ {
			key, row := ent.row(ent.answers, i)
			if c := bytes.Compare(key, op.key); c >= 0 {
				if c == 0 {
					i++ // replaced or deleted
				}
				break
			}
			put(key, row)
		}
		if op.row != nil {
			put(op.key, op.row)
		}
	}
	for ; i < n; i++ {
		put(ent.row(ent.answers, i))
	}
	ent.answers, ent.answerRows = append(out, ']'), next
}

// Put stores a complete result's encoded answers, computed at clearance on
// the snapshot of the given epoch, reading the relations deps, evicting the
// least recently used entry when full; rows, for a query a write can patch,
// are the answers' plan and row index (encodeAnswers). Callers must not
// cache truncated or erroneous results.
// The store is refused when a write newer than epoch has invalidated: the
// caller computed against a snapshot that write superseded.
func (c *resultCache) Put(key, db string, clearance lattice.Label, epoch uint64, deps []string, answers []byte, rows answerRows) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	if epoch < e.latest {
		return
	}
	delete(c.stale, key) // a fresh result supersedes any brownout copy
	if ent, ok := c.by[key]; ok {
		if slices.Equal(ent.deps, deps) {
			c.unlink(ent)
			c.link(ent)
			ent.epoch, ent.answers, ent.answerRows = epoch, answers, rows
			ent.pending, ent.queued = nil, 0
			return
		}
		// New deps, new index references: the entry is replaced, in place
		// of an eviction.
		c.drop(ent)
		e.maybeSweep()
	}
	for len(c.by) >= c.cap {
		oldest := c.lru.prev
		c.drop(oldest)
		oldest.idx.maybeSweep()
		c.evictions++
	}
	ent := &cacheEntry{key: key, db: db, idx: e, clearance: clearance, epoch: epoch, deps: deps, answers: answers, answerRows: rows}
	c.link(ent)
	c.by[key] = ent
	cr := e.readers[clearance]
	if cr == nil {
		cr = &clearanceReaders{byRel: map[string]*readers{}}
		e.readers[clearance] = cr
	}
	cr.all.ents = append(cr.all.ents, ent)
	for _, d := range deps {
		l := cr.byRel[d]
		if l == nil {
			l = &readers{}
			cr.byRel[d] = l
		}
		l.ents = append(l.ents, ent)
	}
	e.refs += 1 + len(deps)
}

// drop takes ent out of the cache, leaving its index references dead.
// Callers hold c.mu and sweep ent's database's index once they no longer
// range over it.
func (c *resultCache) drop(ent *cacheEntry) {
	c.unlink(ent)
	delete(c.by, ent.key)
	ent.idx.dead += 1 + len(ent.deps)
	ent.gone, ent.key, ent.deps, ent.answers = true, "", nil, nil
	ent.answerRows, ent.pending = answerRows{}, nil
}

// maybeSweep compacts every index list of the database once its references
// to gone entries outnumber those to live ones. Callers hold c.mu and range
// over none of the lists.
func (e *dbEpochs) maybeSweep() {
	if e.dead <= e.refs-e.dead {
		return
	}
	for _, cr := range e.readers {
		cr.all.sweep()
		for _, l := range cr.byRel {
			l.sweep()
		}
	}
	e.refs -= e.dead
	e.dead = 0
}

// sweep drops the list's references to gone entries, keeping its order and
// its backing array.
func (l *readers) sweep() {
	live := l.ents[:0]
	for _, ent := range l.ents {
		if !ent.gone {
			live = append(live, ent)
		}
	}
	clear(l.ents[len(live):])
	l.ents = live
}

// Invalidate applies the write of epoch, in epoch order, to db's entries and
// returns how many it dropped and patched. changed holds, per clearance the
// write advanced, its advance's report. An entry computed before epoch goes
// when its clearance is not in changed — cold at the write, dropped by it, or
// built while it ran — or when its deps meet the relations changed there,
// unless it has a patch plan: then it queues the changed tuples that touch it
// (PatchPlan.Touching) and holds at epoch, or goes if its queue would pass
// maxPending. Later Puts below epoch are refused. It visits the index lists
// of the changed relations and of the clearances missing from changed.
func (c *resultCache) Invalidate(db string, epoch uint64, changed map[lattice.Label]multilog.DeltaReport) (dropped, patched int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.epochs(db)
	e.latest = max(e.latest, epoch)
	now := time.Now()
	visit := func(l *readers, delta map[string]datalog.PredDelta) {
		if l == nil {
			return
		}
		for _, ent := range l.ents {
			if ent.gone || ent.epoch >= epoch {
				continue
			}
			if ent.plan != nil && delta != nil {
				add, del := ent.plan.Touching(delta, nil, nil)
				if n := len(add) + len(del); ent.queued+n <= maxPending {
					if n > 0 {
						ent.pending, ent.queued = append(ent.pending, patchDelta{add, del}), ent.queued+n
						patched++
					}
					ent.epoch = epoch
					continue
				}
				c.overflows++
			}
			c.retire(ent, now, epoch)
			c.drop(ent)
			dropped++
		}
	}
	for u, cr := range e.readers {
		rep, advanced := changed[u]
		if !advanced {
			visit(&cr.all, nil)
		}
		for _, p := range rep.ChangedPreds {
			visit(cr.byRel[p], rep.Changed)
		}
	}
	e.maybeSweep()
	c.invalidations += int64(dropped)
	c.patched += int64(patched)
	return dropped, patched
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
	for _, cr := range e.readers {
		for _, ent := range cr.all.ents {
			if !ent.gone {
				c.drop(ent)
				n++
			}
		}
	}
	clear(e.readers)
	e.refs, e.dead = 0, 0
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
		Patched:       c.patched,
		PatchOverflow: c.overflows,
		Entries:       len(c.by),
		Capacity:      c.cap,
	}
}
