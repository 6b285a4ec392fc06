package datalog

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/term"
)

// Store holds ground facts grouped by predicate, with optional per-argument
// hash indexes to accelerate joins. The zero value is not usable; call
// NewStore.
//
// Relations sit in slots: ids maps a predicate to its slot in rels, so a
// read is one map lookup and an index. A relation that empties leaves its
// slot nil. Clones share ids — it changes only when a store gives a new
// predicate a slot, and a store copies it first while it is shared — and
// each holds its own slice of relation pointers.
//
// Clone is copy-on-write at relation granularity: the clone shares every
// relation with its source, and a relation that has ever been shared is
// immutable — whichever store next inserts into or removes from it first
// replaces it, in its own slot, by a private one. A relation is private to
// the store whose stamp it carries: a store stamps each relation it makes,
// and Clone draws new stamps for both stores, so every relation the two
// share is stamped by neither — nothing is marked per relation. Reading
// (Match, Facts, Contains) never writes, so a store that is no longer
// mutated keeps serving any number of readers while its clones are being
// patched.
//
// The private replacement of a flat shared relation of flatCopyBelow tuples
// or more is a delta over it: the shared relation stays the delta's frozen
// base, and the delta holds only what writes changed — tuples added, base
// tuples removed, base counts overridden — so a write copies what it changes,
// not the relation. Replacing a shared delta copies the delta and keeps its
// base, so a base is always flat. A delta that reaches FoldAt(|base|) changes
// is folded into a fresh flat relation at its next write.
type Store struct {
	ids  map[string]int // predicate -> slot in rels
	rels []*relation    // by slot; nil where a relation emptied
	// idsShared is set once a Clone has handed ids to a second store; the
	// store that next gives a predicate a slot copies ids first.
	idsShared bool
	stamp     uint64 // carried by the relations private to this store
	indexing  bool
	// InsertFault, when set, is consulted before every insert; a non-nil
	// return aborts the insert with that error. The evaluator propagates the
	// hook from the EDB store to its derived stores, so the fault-injection
	// chaos suite can simulate a failing backing store mid-evaluation.
	InsertFault func(Atom) error
}

// NewStore returns an empty store with argument indexing enabled.
func NewStore() *Store { return &Store{ids: map[string]int{}, stamp: newStamp(), indexing: true} }

// NewStoreNoIndex returns an empty store with indexing disabled; used by the
// indexing ablation benchmark.
func NewStoreNoIndex() *Store { return &Store{ids: map[string]int{}, stamp: newStamp()} }

// stamps hands out store stamps; no two stores, nor one store before and
// after a Clone, hold the same one.
var stamps atomic.Uint64

func newStamp() uint64 { return stamps.Add(1) }

// relation is one predicate's tuples. A flat relation (base nil) holds them
// all in facts; a delta relation holds in facts only the tuples it added to
// its base, which are never among the base's live ones.
type relation struct {
	facts []Atom // insertion order (perturbed by Remove's swap-delete)
	// counts holds each fact's base-assertion count at the fact's offset,
	// moved with it by Remove's swap-delete; nil while every count is zero.
	counts []int
	seen   map[string]int // fact key -> offset into facts
	// index[pos][key] lists offsets into facts whose argument at pos has
	// that term key. Built lazily per argument position.
	index map[int]map[string][]int
	// stamp is the stamp of the store that made the relation: it is that
	// store's to write while the store keeps the stamp, until its next
	// Clone. Then it is shared for good — frozen, and writers replace it.
	stamp uint64

	base *relation    // a delta's frozen flat base; nil for a flat relation
	dead map[int]bool // base offsets the delta removed
	over map[int]int  // base offset -> base count, where the delta set one
}

// flatCopyBelow is the size under which a shared relation is replaced by a
// flat copy rather than a delta: a copy of a few dozen tuples costs about
// what an empty delta does, and reads it at full speed.
const flatCopyBelow = 32

// FoldAt is how many changes a delta over a base of n tuples holds before it
// is folded: 2√n, at least 8. Each copy of a delta then costs O(√n), and a
// fold's O(n) copy is paid once per O(√n) changes. Of c·√n for c = ¼, ½, 1,
// 2 and 4, and of n/8 and n/32, 2√n allocated least per write at 3,200 and
// 32,000 tuples in a chain of clones each writing a tuple in and a tuple out
// (BenchmarkStoreWriteAfterClone, chain=true). The rule sets of Incremental
// and multilog's clause versions (multilog.Version) fold by the same rule.
func FoldAt(n int) int { return max(8, int(2*math.Sqrt(float64(n)))) }

func newRelation() *relation {
	return &relation{seen: map[string]int{}, index: map[int]map[string][]int{}}
}

// clone copies the relation's own tuples in bulk — no fact is re-keyed or
// re-inserted — and shares its base. Every index list gets capacity equal to
// its length, so a later append reallocates it instead of growing into its
// neighbour in the arena. Of a flat relation it is a whole copy, made only
// for relations under flatCopyBelow tuples and by fold.
func (r *relation) clone() *relation {
	c := &relation{
		facts: append([]Atom(nil), r.facts...),
		seen:  maps.Clone(r.seen),
		index: make(map[int]map[string][]int, len(r.index)),
		base:  r.base,
		dead:  maps.Clone(r.dead),
		over:  maps.Clone(r.over),
	}
	if r.counts != nil {
		c.counts = append([]int(nil), r.counts...)
	}
	for pos, m := range r.index {
		cm := maps.Clone(m)
		arena := make([]int, 0, len(r.facts)) // one offset per fact and position
		for k, list := range cm {
			start := len(arena)
			arena = append(arena, list...)
			cm[k] = arena[start:len(arena):len(arena)]
		}
		c.index[pos] = cm
	}
	return c
}

// changes is the size of a delta: what fold has to apply to its base.
func (r *relation) changes() int { return len(r.facts) + len(r.dead) + len(r.over) }

// fold returns the flat relation holding what the delta r holds: its base
// copied in bulk, then r's count overrides, removals and added tuples applied.
func (r *relation) fold(indexing bool) *relation {
	c := r.base.clone()
	if len(r.over) > 0 && c.counts == nil {
		c.counts = make([]int, len(c.facts))
	}
	for off, n := range r.over {
		c.counts[off] = n
	}
	// Highest offset first: every tuple swapped down into a freed slot then
	// sits below the offsets still to go, so those stay where they were.
	dead := make([]int, 0, len(r.dead))
	for off := range r.dead {
		dead = append(dead, off)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dead)))
	for _, off := range dead {
		c.removeAt(off, c.facts[off].Key(), indexing)
	}
	keys := make([]string, len(r.facts))
	for k, off := range r.seen {
		keys[off] = k
	}
	for i, f := range r.facts {
		c.add(f, keys[i], nil, indexing)
		if n := r.count(i, true); n != 0 {
			c.setCount(len(c.facts)-1, true, n)
		}
	}
	return c
}

// lookup finds the stored tuple with key k: at offset off of r's own facts
// (own), or of its base.
func (r *relation) lookup(k string) (off int, own, ok bool) {
	if off, ok := r.seen[k]; ok {
		return off, true, true
	}
	if r.base != nil {
		if off, ok := r.base.seen[k]; ok && !r.dead[off] {
			return off, false, true
		}
	}
	return 0, false, false
}

// count is the base count of the tuple lookup found at off.
func (r *relation) count(off int, own bool) int {
	if !own {
		if n, ok := r.over[off]; ok {
			return n
		}
		r = r.base
	}
	if r.counts == nil {
		return 0
	}
	return r.counts[off]
}

// setCount overwrites the base count of the tuple lookup found at off.
func (r *relation) setCount(off int, own bool, n int) {
	if !own {
		if r.over == nil {
			r.over = map[int]int{}
		}
		r.over[off] = n
		return
	}
	if r.counts == nil {
		r.counts = make([]int, len(r.facts), cap(r.facts))
	}
	r.counts[off] = n
}

// size is the number of tuples the relation holds.
func (r *relation) size() int {
	if r.base == nil {
		return len(r.facts)
	}
	return len(r.base.facts) - len(r.dead) + len(r.facts)
}

// all returns the relation's tuples: a flat relation's own slice, or a fresh
// one holding a delta's live base tuples and then its added ones.
func (r *relation) all() []Atom {
	if r.base == nil {
		return r.facts
	}
	out := make([]Atom, 0, r.size())
	for off, f := range r.base.facts {
		if !r.dead[off] {
			out = append(out, f)
		}
	}
	return append(out, r.facts...)
}

// add appends a tuple the relation does not hold, under key k, to its own
// facts; argKeys, when non-nil, are its arguments' term keys.
func (r *relation) add(a Atom, k string, argKeys []string, indexing bool) {
	pos := len(r.facts)
	r.seen[k] = pos
	r.facts = append(r.facts, a)
	if r.counts != nil {
		r.counts = append(r.counts, 0)
	}
	if !indexing {
		return
	}
	for i, t := range a.Args {
		m := r.index[i]
		if m == nil {
			// No size hint: positions holding low-cardinality constants
			// (levels, modes) would waste a full-width table on a handful
			// of distinct keys.
			m = map[string][]int{}
			r.index[i] = m
		}
		var tk string
		if argKeys != nil {
			tk = argKeys[i]
		} else {
			tk = t.Key()
		}
		m[tk] = append(m[tk], pos)
	}
}

// remove takes the tuple with key k, which the relation holds, out of it:
// swap-deleted from its own facts, or tombstoned in its base.
func (r *relation) remove(k string, indexing bool) {
	off, own, _ := r.lookup(k)
	if !own {
		if r.dead == nil {
			r.dead = map[int]bool{}
		}
		r.dead[off] = true
		delete(r.over, off)
		return
	}
	r.removeAt(off, k, indexing)
}

// removeAt swap-deletes own fact off, whose key is k.
func (r *relation) removeAt(off int, k string, indexing bool) {
	last := len(r.facts) - 1
	if indexing {
		dropOffset(r, r.facts[off], off)
		if off != last {
			replaceOffset(r, r.facts[last], last, off)
		}
	}
	if off != last {
		moved := r.facts[last]
		r.facts[off] = moved
		r.seen[moved.Key()] = off
		if r.counts != nil {
			r.counts[off] = r.counts[last]
		}
	}
	r.facts[last] = Atom{} // release the term references
	r.facts = r.facts[:last]
	if r.counts != nil {
		r.counts = r.counts[:last]
	}
	delete(r.seen, k)
}

// rel returns pred's relation, nil when the store holds no tuple of pred.
func (s *Store) rel(pred string) *relation {
	if i, ok := s.ids[pred]; ok {
		return s.rels[i]
	}
	return nil
}

// put makes r, a relation s made, pred's relation, giving pred a slot when
// it has none.
func (s *Store) put(pred string, r *relation) {
	r.stamp = s.stamp
	if i, ok := s.ids[pred]; ok {
		s.rels[i] = r
		return
	}
	if s.idsShared {
		s.ids, s.idsShared = maps.Clone(s.ids), false
	}
	s.ids[pred] = len(s.rels)
	s.rels = append(s.rels, r)
}

// own returns pred's relation ready to be mutated — a shared one replaced by
// a private flat copy or delta, a delta that reached FoldAt folded — or nil
// when the store has no such relation.
func (s *Store) own(pred string) *relation {
	i, ok := s.ids[pred]
	if !ok {
		return nil
	}
	r := s.rels[i]
	switch {
	case r == nil:
		return nil
	case r.base != nil && r.changes() >= FoldAt(len(r.base.facts)):
		r = r.fold(s.indexing)
	case r.stamp == s.stamp:
		return r
	case r.base != nil || len(r.facts) < flatCopyBelow:
		r = r.clone()
	default:
		r = &relation{base: r, seen: map[string]int{}, index: map[int]map[string][]int{}}
	}
	r.stamp = s.stamp
	s.rels[i] = r
	return r
}

// Insert adds a ground fact; it reports whether the fact was new. Stores
// hold only ground facts, so inserting a non-ground atom is an error (it
// used to panic — a single bad derivation must not take down a server).
func (s *Store) Insert(a Atom) (bool, error) {
	if !a.IsGround() {
		return false, fmt.Errorf("datalog: insert of non-ground atom %s", a)
	}
	if s.InsertFault != nil {
		if err := s.InsertFault(a); err != nil {
			return false, err
		}
	}
	k := a.Key()
	r := s.rel(a.Pred)
	if r == nil {
		r = newRelation()
		s.put(a.Pred, r)
	} else if _, _, ok := r.lookup(k); ok {
		return false, nil
	} else {
		r = s.own(a.Pred)
	}
	r.add(a, k, nil, s.indexing)
	return true, nil
}

// InsertBatch bulk-loads ground facts of one predicate with their keys
// precomputed by the caller: keys[i] must equal facts[i].Key(), and
// argKeys[i][j], when argKeys is non-nil, must equal facts[i].Args[j].Key().
// It behaves like repeated Insert — duplicates are dropped, the fault hook
// is honored, indexes stay consistent — but presizes the relation's dedup
// and index maps for the whole batch and skips key recomputation, which is
// what makes materializing a large derived model in one shot cheap. It
// returns the number of facts that were new.
func (s *Store) InsertBatch(pred string, facts []Atom, keys []string, argKeys [][]string) (int, error) {
	if len(keys) != len(facts) || (argKeys != nil && len(argKeys) != len(facts)) {
		return 0, fmt.Errorf("datalog: InsertBatch: %d facts with %d keys, %d arg-key rows",
			len(facts), len(keys), len(argKeys))
	}
	r := s.own(pred)
	if r == nil {
		r = &relation{seen: make(map[string]int, len(facts)), index: map[int]map[string][]int{}}
		s.put(pred, r)
	}
	added := 0
	for i, a := range facts {
		if !a.IsGround() {
			return added, fmt.Errorf("datalog: insert of non-ground atom %s", a)
		}
		if s.InsertFault != nil {
			if err := s.InsertFault(a); err != nil {
				return added, err
			}
		}
		if _, _, ok := r.lookup(keys[i]); ok {
			continue
		}
		var ak []string
		if argKeys != nil {
			ak = argKeys[i]
		}
		r.add(a, keys[i], ak, s.indexing)
		added++
	}
	return added, nil
}

// Contains reports whether the ground atom is present.
func (s *Store) Contains(a Atom) bool {
	r := s.rel(a.Pred)
	if r == nil {
		return false
	}
	_, _, ok := r.lookup(a.Key())
	return ok
}

// Remove deletes a ground fact, reporting whether it was present. Removal
// swap-deletes within the relation, so it invalidates slices this store
// previously returned from Facts and perturbs insertion order; rendering and
// query paths sort or deduplicate, so observable results are unaffected.
func (s *Store) Remove(a Atom) bool {
	r := s.rel(a.Pred)
	if r == nil {
		return false
	}
	k := a.Key()
	if _, _, ok := r.lookup(k); !ok {
		return false
	}
	r = s.own(a.Pred)
	r.remove(k, s.indexing)
	if r.size() == 0 {
		s.rels[s.ids[a.Pred]] = nil
	}
	return true
}

// dropOffset removes one occurrence of off from every index list of atom a.
func dropOffset(r *relation, a Atom, off int) {
	for i, t := range a.Args {
		m := r.index[i]
		if m == nil {
			continue
		}
		tk := t.Key()
		list := m[tk]
		for j, v := range list {
			if v == off {
				list[j] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(m, tk)
		} else {
			m[tk] = list
		}
	}
}

// replaceOffset rewrites one occurrence of from to to in every index list of
// atom a (the fact that was swapped into the removed slot).
func replaceOffset(r *relation, a Atom, from, to int) {
	for i, t := range a.Args {
		m := r.index[i]
		if m == nil {
			continue
		}
		for j, v := range m[t.Key()] {
			if v == from {
				m[t.Key()][j] = to
				break
			}
		}
	}
}

// Facts returns all facts for a predicate in insertion order. The slice must
// not be modified, and is invalidated by a subsequent Remove on this store.
// A relation that is a delta assembles a fresh slice per call.
func (s *Store) Facts(pred string) []Atom {
	r := s.rel(pred)
	if r == nil {
		return nil
	}
	return r.all()
}

// Len returns the total number of facts.
func (s *Store) Len() int {
	n := 0
	for _, r := range s.rels {
		if r != nil {
			n += r.size()
		}
	}
	return n
}

// Preds returns the predicates present, sorted.
func (s *Store) Preds() []string {
	var out []string
	for p, i := range s.ids {
		if s.rels[i] != nil {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Match calls fn for every stored fact of query.Pred that unifies with query
// under an extension of base, and may be stopped early by fn returning false.
// Each candidate is bound into base itself, its bindings kept on a trail and
// undone once fn returns or the unification fails, so no candidate copies the
// substitution: fn's argument is base, borrowed — valid only until fn
// returns, and left as Match found it when Match returns. A caller that keeps
// an answer copies what it needs (Apply). fn may call Match again with it.
//
// A delta relation yields its live base tuples, then its added ones. Match
// probes an argument index — the pair of a delta's and its base's lists — at
// the most selective argument position the query, under base, makes ground.
func (s *Store) Match(query Atom, base term.Subst, fn func(term.Subst) bool) {
	r := s.rel(query.Pred)
	if r == nil {
		return
	}
	var tb [8]string
	try := func(f Atom) bool {
		trail, ok := term.UnifyAllTrail(query.Args, f.Args, base, tb[:0])
		more := !ok || fn(base)
		base.Undo(trail)
		return more
	}
	// flat is the relation holding the tuples under their offsets: r itself,
	// or a delta's base, whose dead offsets are skipped and whose added
	// tuples and their index lists are r's own.
	flat, added, addedIdx := r, []Atom(nil), map[int]map[string][]int(nil)
	if r.base != nil {
		flat, added, addedIdx = r.base, r.facts, r.index
	}
	if s.indexing {
		var kb [64]byte
		best := -1
		var flatList, addedList []int
		for i, t := range query.Args {
			bound := base.Apply(t)
			if !bound.IsGround() || flat.index[i] == nil && addedIdx[i] == nil {
				continue
			}
			k := bound.AppendKey(kb[:0])
			fl, al := flat.index[i][string(k)], addedIdx[i][string(k)]
			if best == -1 || len(fl)+len(al) < len(flatList)+len(addedList) {
				best, flatList, addedList = i, fl, al
			}
		}
		if best >= 0 {
			for _, off := range flatList {
				if !r.dead[off] && !try(flat.facts[off]) {
					return
				}
			}
			for _, off := range addedList {
				if !try(added[off]) {
					return
				}
			}
			return
		}
	}
	for off, f := range flat.facts {
		if !r.dead[off] && !try(f) {
			return
		}
	}
	for _, f := range added {
		if !try(f) {
			return
		}
	}
}

// Clone returns a store with the same facts that can be mutated without
// affecting s, and vice versa. It copies a slice of one pointer per relation,
// shares the slot map and draws s a new stamp, in two allocations and no
// visit to a relation whatever the store's size: relations are shared and
// replaced on first write, the slot map copied by the first store to add a
// predicate (see Store). Clone may run beside readers of s, but not beside a
// writer or another Clone of s. Fault hooks are not cloned: a clone is a
// private working copy.
func (s *Store) Clone() *Store {
	s.stamp, s.idsShared = newStamp(), true
	return &Store{ids: s.ids, rels: slices.Clone(s.rels), idsShared: true, stamp: newStamp(), indexing: s.indexing}
}

// support returns the base-assertion count of the stored fact with the given
// key, and whether it is stored.
func (s *Store) support(pred, key string) (int, bool) {
	r := s.rel(pred)
	if r == nil {
		return 0, false
	}
	off, own, ok := r.lookup(key)
	if !ok {
		return 0, false
	}
	return r.count(off, own), true
}

// setSupport overwrites the base-assertion count of a stored fact. Writing
// the value already there leaves a shared relation shared.
func (s *Store) setSupport(pred, key string, base int) {
	r := s.rel(pred)
	if r == nil {
		return
	}
	off, own, ok := r.lookup(key)
	if !ok || r.count(off, own) == base {
		return
	}
	r = s.own(pred)
	off, own, _ = r.lookup(key)
	r.setCount(off, own, base)
}

// supports returns every stored fact's base-assertion count, by fact key.
func (s *Store) supports() map[string]int {
	out := make(map[string]int, s.Len())
	for _, r := range s.rels {
		if r == nil {
			continue
		}
		if b := r.base; b != nil {
			for k, off := range b.seen {
				if !r.dead[off] {
					out[k] = r.count(off, false)
				}
			}
		}
		for k, off := range r.seen {
			out[k] = r.count(off, true)
		}
	}
	return out
}

// String renders all facts sorted, one per line — handy in tests and the CLI.
func (s *Store) String() string {
	var lines []string
	for _, p := range s.Preds() {
		for _, f := range s.rel(p).all() {
			lines = append(lines, f.String()+".")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
