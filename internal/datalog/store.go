package datalog

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/term"
)

// Store holds ground facts grouped by predicate, with optional per-argument
// hash indexes to accelerate joins. The zero value is not usable; call
// NewStore.
//
// Clone is copy-on-write at relation granularity: the clone shares every
// relation with its source, and a relation that has ever been shared is
// immutable — whichever store next inserts into or removes from it first
// replaces it, in its own map, by a private copy. Reading (Match, Facts,
// Contains) never writes, so a store that is no longer mutated keeps serving
// any number of readers while its clones are being patched.
type Store struct {
	rels     map[string]*relation
	indexing bool
	// counting makes every relation carry a base-assertion count column
	// beside its facts; set by Incremental on the model it maintains.
	counting bool
	// InsertFault, when set, is consulted before every insert; a non-nil
	// return aborts the insert with that error. The evaluator propagates the
	// hook from the EDB store to its derived stores, so the fault-injection
	// chaos suite can simulate a failing backing store mid-evaluation.
	InsertFault func(Atom) error
}

// NewStore returns an empty store with argument indexing enabled.
func NewStore() *Store { return &Store{rels: map[string]*relation{}, indexing: true} }

// NewStoreNoIndex returns an empty store with indexing disabled; used by the
// indexing ablation benchmark.
func NewStoreNoIndex() *Store { return &Store{rels: map[string]*relation{}} }

type relation struct {
	facts []Atom // insertion order (perturbed by Remove's swap-delete)
	// counts holds each fact's base-assertion count at the fact's offset,
	// moved with it by Remove's swap-delete; nil unless the store is counting.
	counts []int
	seen   map[string]int // fact key -> offset into facts
	// index[pos][key] lists offsets into facts whose argument at pos has
	// that term key. Built lazily per argument position.
	index map[int]map[string][]int
	// shared is set once a Clone has handed the relation to a second store.
	// It never clears: a shared relation is frozen, and writers copy it.
	shared bool
}

func newRelation() *relation {
	return &relation{seen: map[string]int{}, index: map[int]map[string][]int{}}
}

// clone copies the relation in bulk — no fact is re-keyed or re-inserted.
// Every index list gets capacity equal to its length, so a later append
// reallocates it instead of growing into its neighbour in the arena.
func (r *relation) clone() *relation {
	c := &relation{
		facts: append([]Atom(nil), r.facts...),
		seen:  maps.Clone(r.seen),
		index: make(map[int]map[string][]int, len(r.index)),
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

// own returns pred's relation ready to be mutated, first replacing a shared
// one by a private copy; nil when the store has no such relation.
func (s *Store) own(pred string) *relation {
	r := s.rels[pred]
	if r != nil && r.shared {
		r = r.clone()
		s.rels[pred] = r
	}
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
	r := s.rels[a.Pred]
	if r == nil {
		r = newRelation()
		s.rels[a.Pred] = r
	} else if _, ok := r.seen[k]; ok {
		return false, nil
	} else {
		r = s.own(a.Pred)
	}
	pos := len(r.facts)
	r.seen[k] = pos
	r.facts = append(r.facts, a)
	if s.counting {
		r.counts = append(r.counts, 0)
	}
	if s.indexing {
		for i, t := range a.Args {
			m := r.index[i]
			if m == nil {
				m = map[string][]int{}
				r.index[i] = m
			}
			tk := t.Key()
			m[tk] = append(m[tk], pos)
		}
	}
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
		s.rels[pred] = r
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
		if _, ok := r.seen[keys[i]]; ok {
			continue
		}
		pos := len(r.facts)
		r.seen[keys[i]] = pos
		r.facts = append(r.facts, a)
		if s.counting {
			r.counts = append(r.counts, 0)
		}
		if s.indexing {
			for j, t := range a.Args {
				m := r.index[j]
				if m == nil {
					// No size hint: positions holding low-cardinality
					// constants (levels, modes) would waste a full-width
					// table on a handful of distinct keys.
					m = map[string][]int{}
					r.index[j] = m
				}
				tk := ""
				if argKeys != nil {
					tk = argKeys[i][j]
				} else {
					tk = t.Key()
				}
				m[tk] = append(m[tk], pos)
			}
		}
		added++
	}
	return added, nil
}

// Contains reports whether the ground atom is present.
func (s *Store) Contains(a Atom) bool {
	r := s.rels[a.Pred]
	if r == nil {
		return false
	}
	_, ok := r.seen[a.Key()]
	return ok
}

// Remove deletes a ground fact, reporting whether it was present. Removal
// swap-deletes within the relation, so it invalidates slices this store
// previously returned from Facts and perturbs insertion order; rendering and
// query paths sort or deduplicate, so observable results are unaffected.
func (s *Store) Remove(a Atom) bool {
	r := s.rels[a.Pred]
	if r == nil {
		return false
	}
	k := a.Key()
	off, ok := r.seen[k]
	if !ok {
		return false
	}
	r = s.own(a.Pred)
	last := len(r.facts) - 1
	if s.indexing {
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
	if len(r.facts) == 0 {
		delete(s.rels, a.Pred)
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
func (s *Store) Facts(pred string) []Atom {
	r := s.rels[pred]
	if r == nil {
		return nil
	}
	return r.facts
}

// Len returns the total number of facts.
func (s *Store) Len() int {
	n := 0
	for _, r := range s.rels {
		n += len(r.facts)
	}
	return n
}

// Preds returns the predicates present, sorted.
func (s *Store) Preds() []string {
	var out []string
	for p := range s.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Match calls fn for every stored fact of query.Pred that unifies with query
// under an extension of base. fn receives the extended substitution (a fresh
// clone per match) and may return false to stop early. Match uses an
// argument index when the query has a ground argument position.
func (s *Store) Match(query Atom, base term.Subst, fn func(term.Subst) bool) {
	r := s.rels[query.Pred]
	if r == nil {
		return
	}
	candidates := r.facts
	if s.indexing {
		// Pick the most selective index among ground argument positions.
		best := -1
		var bestList []int
		for i, t := range query.Args {
			bound := base.Apply(t)
			if !bound.IsGround() {
				continue
			}
			m := r.index[i]
			if m == nil {
				continue
			}
			list := m[bound.Key()]
			if best == -1 || len(list) < len(bestList) {
				best, bestList = i, list
			}
		}
		if best >= 0 {
			for _, off := range bestList {
				s2 := base.Clone()
				if term.UnifyAll(query.Args, candidates[off].Args, s2) {
					if !fn(s2) {
						return
					}
				}
			}
			return
		}
	}
	for _, f := range candidates {
		if len(f.Args) != len(query.Args) {
			continue
		}
		s2 := base.Clone()
		if term.UnifyAll(query.Args, f.Args, s2) {
			if !fn(s2) {
				return
			}
		}
	}
}

// Clone returns a store with the same facts that can be mutated without
// affecting s, and vice versa. It costs one map entry per relation, not per
// fact: relations are shared and copied on first write (see Store). Clone
// may run beside readers of s, but not beside a writer or another Clone of
// s. Fault hooks are not cloned: a clone is a private working copy.
func (s *Store) Clone() *Store {
	c := &Store{rels: make(map[string]*relation, len(s.rels)), indexing: s.indexing, counting: s.counting}
	for pred, r := range s.rels {
		if !r.shared { // no store to a relation readers have in cache, once frozen
			r.shared = true
		}
		c.rels[pred] = r
	}
	return c
}

// keepCounts turns on the base-count column, zeroed for the facts already
// stored.
func (s *Store) keepCounts() {
	s.counting = true
	for pred := range s.rels {
		r := s.own(pred)
		r.counts = make([]int, len(r.facts))
	}
}

// support returns the base-assertion count of the stored fact with the given
// key, and whether it is stored. Only meaningful on a counting store.
func (s *Store) support(pred, key string) (int, bool) {
	r := s.rels[pred]
	if r == nil {
		return 0, false
	}
	off, ok := r.seen[key]
	if !ok {
		return 0, false
	}
	return r.counts[off], true
}

// setSupport overwrites the base-assertion count of a stored fact. Writing
// the value already there leaves a shared relation shared.
func (s *Store) setSupport(pred, key string, base int) {
	r := s.rels[pred]
	if r == nil {
		return
	}
	off, ok := r.seen[key]
	if !ok || r.counts[off] == base {
		return
	}
	s.own(pred).counts[off] = base
}

// supports returns every stored fact's base-assertion count, by fact key.
func (s *Store) supports() map[string]int {
	out := make(map[string]int, s.Len())
	for _, r := range s.rels {
		for k, off := range r.seen {
			out[k] = r.counts[off]
		}
	}
	return out
}

// String renders all facts sorted, one per line — handy in tests and the CLI.
func (s *Store) String() string {
	var lines []string
	for _, p := range s.Preds() {
		for _, f := range s.rels[p].facts {
			lines = append(lines, f.String()+".")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
