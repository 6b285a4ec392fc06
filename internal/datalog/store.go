package datalog

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/term"
)

// Store holds ground facts grouped by predicate, as rows of interned IDs:
// one Relation per predicate and arity, its tuples arity IDs each under the
// store lineage's Interner, deduplicated by a hash table over the rows, with
// a per-argument index built at the first Match that probes the argument.
// Atoms go in and come out — Insert, Contains and Remove look their
// arguments' IDs up, Match and Facts read terms back from the interner —
// and the compiled engine fills a store's relations with the rows it
// computed, so a model is never re-keyed between the engine that builds it
// and the readers that query it. The zero value is not usable; call
// NewStore.
//
// Relations sit in slots: ids maps a predicate to its slots — one per arity
// in use, almost always one — so a read is one map lookup and an index. A
// relation that empties leaves its slot nil. Clones share ids and the slot
// arities — they change only when a store gives a predicate a new slot, and
// a store copies them first while they are shared — and each holds its own
// slice of relation pointers.
//
// Clone is copy-on-write at relation granularity: the clone shares every
// relation with its source, and a relation that has ever been shared is
// immutable — whichever store next inserts into or removes from it first
// replaces it, in its own slot, by a private one. A relation is private to
// the store whose stamp it carries: a store stamps each relation it makes,
// and Clone draws new stamps for both stores, so every relation the two
// share is stamped by neither — nothing is marked per relation. Reading
// (Match, Facts, Contains) writes no tuple, so a store that is no longer
// mutated keeps serving any number of readers while its clones are being
// patched; the argument indexes a first Match builds are published under
// the relation's lock.
//
// The private replacement of a flat shared relation of flatCopyBelow tuples
// or more is a delta over it: the shared relation stays the delta's frozen
// base, and the delta holds only what writes changed — tuples added, base
// tuples removed, base counts overridden — so a write copies what it changes,
// not the relation. Replacing a shared delta copies the delta and keeps its
// base, so a base is always flat. A delta that reaches FoldAt(|base|) changes
// is folded into a fresh flat relation at its next write.
type Store struct {
	in    *Interner
	ids   map[string][]int // predicate -> its slots in rels
	arity []int            // by slot
	rels  []*Relation      // by slot; nil where a relation emptied
	// idsShared is set once a Clone has handed ids and arity to a second
	// store; the store that next gives a predicate a slot copies them first.
	idsShared bool
	stamp     uint64 // carried by the relations private to this store
	indexing  bool
	// InsertFault, when set, is consulted before every insert; a non-nil
	// return aborts the insert with that error. The evaluator propagates the
	// hook from the EDB store to its derived stores, so the fault-injection
	// chaos suite can simulate a failing backing store mid-evaluation.
	InsertFault func(Atom) error
}

// NewStore returns an empty store with argument indexing enabled, the first
// of a new lineage.
func NewStore() *Store {
	return &Store{in: NewInterner(), ids: map[string][]int{}, stamp: newStamp(), indexing: true}
}

// NewStoreNoIndex returns an empty store with indexing disabled — Match
// scans — used by the indexing ablation benchmark.
func NewStoreNoIndex() *Store {
	return &Store{in: NewInterner(), ids: map[string][]int{}, stamp: newStamp()}
}

// stamps hands out store stamps; no two stores, nor one store before and
// after a Clone, hold the same one.
var stamps atomic.Uint64

func newStamp() uint64 { return stamps.Add(1) }

// Relation is one predicate's tuples of one arity, as rows of interned IDs.
// A flat relation (base nil) holds them all; a delta relation holds in its
// own rows only the tuples it added to its base, which are never among the
// base's live ones. Its rows, dedup table, count column and argument
// indexes hold no pointer, so a collection has none of them to scan.
type Relation struct {
	arity int
	n     int   // own tuples
	rows  []ID  // own tuples, arity IDs each, in insertion order (perturbed by swap-delete)
	table []int // dedup: open addressing over own tuples, offset+1 per slot, 0 empty
	// counts holds each own tuple's base-assertion count at its offset,
	// moved with it by the swap-delete; nil while every count is zero.
	counts []int
	// idx holds, per argument position, the index of the own tuples by
	// their ID there, nil until a Match probes the position; mu serializes
	// the builds of readers racing to the same one.
	idx []atomic.Pointer[posIndex]
	mu  sync.Mutex
	// stamp is the stamp of the store that made the relation: it is that
	// store's to write while the store keeps the stamp, until its next
	// Clone. Then it is shared for good — frozen, and writers replace it.
	stamp uint64

	base *Relation    // a delta's frozen flat base; nil for a flat relation
	dead map[int]bool // base offsets the delta removed
	over map[int]int  // base offset -> base count, where the delta set one
}

// posIndex lists a relation's own tuples by the ID at one argument position:
// each ID's offsets in insertion order, chained through next.
type posIndex struct {
	heads map[ID]span
	next  []int32 // by offset: the next offset with the same ID; -1 ends a list
}

// span is one ID's list: its first and last offset and its length.
type span struct{ first, last, n int32 }

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

func newRelation(arity int) *Relation {
	return &Relation{arity: arity, idx: make([]atomic.Pointer[posIndex], arity)}
}

// newDelta returns an empty delta over the flat relation base.
func newDelta(base *Relation) *Relation {
	r := newRelation(base.arity)
	r.base = base
	return r
}

// row returns own tuple off.
func (r *Relation) row(off int) []ID { return r.rows[off*r.arity : off*r.arity+r.arity] }

// hashRow mixes a row's IDs into a table position.
func hashRow(row []ID) uint64 {
	h := uint64(len(row)) * 0x9e3779b97f4a7c15
	for _, id := range row {
		h = (h ^ uint64(id)) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// find returns the table slot holding the own tuple equal to row and its
// offset, or the empty slot where it would go and -1.
func (r *Relation) find(row []ID) (slot, off int) {
	if len(r.table) == 0 {
		return -1, -1
	}
	mask := len(r.table) - 1
	for i := int(hashRow(row) & uint64(mask)); ; i = (i + 1) & mask {
		v := r.table[i]
		if v == 0 {
			return i, -1
		}
		if slices.Equal(r.row(v-1), row) {
			return i, v - 1
		}
	}
}

// grow rebuilds the table at twice the slots the own tuples need.
func (r *Relation) grow(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	r.table = make([]int, size)
	mask := size - 1
	for off := 0; off < r.n; off++ {
		i := int(hashRow(r.row(off)) & uint64(mask))
		for r.table[i] != 0 {
			i = (i + 1) & mask
		}
		r.table[i] = off + 1
	}
}

// unslot empties table slot i and shifts back the entries after it that
// probing would no longer reach.
func (r *Relation) unslot(i int) {
	mask := len(r.table) - 1
	for j := (i + 1) & mask; r.table[j] != 0; j = (j + 1) & mask {
		home := int(hashRow(r.row(r.table[j]-1)) & uint64(mask))
		if (j-home)&mask >= (j-i)&mask {
			r.table[i] = r.table[j]
			i = j
		}
	}
	r.table[i] = 0
}

// Len returns the number of tuples the relation holds.
func (r *Relation) Len() int {
	if r.base == nil {
		return r.n
	}
	return r.base.n - len(r.dead) + r.n
}

// At returns the ID at column col of own tuple off.
func (r *Relation) At(off int32, col int) ID { return r.rows[int(off)*r.arity+col] }

// Has reports whether the relation holds the tuple row.
func (r *Relation) Has(row []ID) bool {
	_, _, ok := r.lookup(row)
	return ok
}

// Add appends the tuple row if the relation does not hold it, and reports
// whether it did. It is for filling a relation of a store nobody else holds
// yet: Store.Relation's, before the store is published or cloned.
func (r *Relation) Add(row []ID) bool {
	if r.Has(row) {
		return false
	}
	r.add(row)
	return true
}

// clone copies the relation's own tuples in bulk — nothing is re-hashed but
// the table copied — and shares its base. Its argument indexes are built
// again when a Match probes them. Of a flat relation it is a whole copy,
// made only for relations under flatCopyBelow tuples and by fold.
func (r *Relation) clone() *Relation {
	c := newRelation(r.arity)
	c.n, c.base = r.n, r.base
	c.rows = slices.Clone(r.rows)
	c.table = slices.Clone(r.table)
	c.dead, c.over = maps.Clone(r.dead), maps.Clone(r.over)
	if r.counts != nil {
		c.counts = slices.Clone(r.counts)
	}
	return c
}

// changes is the size of a delta: what fold has to apply to its base.
func (r *Relation) changes() int { return r.n + len(r.dead) + len(r.over) }

// fold returns the flat relation holding what the delta r holds: its base
// copied in bulk, then r's count overrides, removals and added tuples applied.
func (r *Relation) fold() *Relation {
	c := r.base.clone()
	if len(r.over) > 0 && c.counts == nil {
		c.counts = make([]int, c.n)
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
		c.removeAt(off)
	}
	for off := 0; off < r.n; off++ {
		c.add(r.row(off))
		if n := r.count(off, true); n != 0 {
			c.setCount(c.n-1, true, n)
		}
	}
	return c
}

// lookup finds the stored tuple row: at offset off of r's own tuples (own),
// or of its base.
func (r *Relation) lookup(row []ID) (off int, own, ok bool) {
	if _, off := r.find(row); off >= 0 {
		return off, true, true
	}
	if r.base != nil {
		if _, off := r.base.find(row); off >= 0 && !r.dead[off] {
			return off, false, true
		}
	}
	return 0, false, false
}

// count is the base count of the tuple lookup found at off.
func (r *Relation) count(off int, own bool) int {
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
func (r *Relation) setCount(off int, own bool, n int) {
	if !own {
		if r.over == nil {
			r.over = map[int]int{}
		}
		r.over[off] = n
		return
	}
	if r.counts == nil {
		r.counts = make([]int, r.n, r.n+1)
	}
	r.counts[off] = n
}

// add appends a tuple the relation does not hold to its own rows, and to
// every argument index already built.
func (r *Relation) add(row []ID) {
	off := r.n
	if 2*(off+1) > len(r.table) {
		r.grow(off + 1)
	}
	r.rows = append(r.rows, row...)
	r.n++
	slot, _ := r.find(row)
	r.table[slot] = off + 1
	if r.counts != nil {
		r.counts = append(r.counts, 0)
	}
	for i := range r.idx {
		if x := r.idx[i].Load(); x != nil {
			x.add(row[i], int32(off))
		}
	}
}

// remove takes the tuple row, which the relation holds, out of it:
// swap-deleted from its own rows, or tombstoned in its base.
func (r *Relation) remove(row []ID) {
	off, own, _ := r.lookup(row)
	if !own {
		if r.dead == nil {
			r.dead = map[int]bool{}
		}
		r.dead[off] = true
		delete(r.over, off)
		return
	}
	r.removeAt(off)
}

// removeAt swap-deletes own tuple off: the last own tuple takes its offset.
func (r *Relation) removeAt(off int) {
	last := r.n - 1
	gone := r.row(off)
	slot, _ := r.find(gone)
	r.unslot(slot)
	for i := range r.idx {
		if x := r.idx[i].Load(); x != nil {
			x.unlink(gone[i], int32(off))
			if off != last {
				x.move(r.rows[last*r.arity+i], int32(last), int32(off))
			}
			x.next = x.next[:last]
		}
	}
	if off != last {
		moved := r.row(last)
		slot, _ := r.find(moved)
		r.table[slot] = off + 1
		copy(gone, moved)
		if r.counts != nil {
			r.counts[off] = r.counts[last]
		}
	}
	r.rows = r.rows[:last*r.arity]
	if r.counts != nil {
		r.counts = r.counts[:last]
	}
	r.n--
}

// index returns the index of the own tuples by their ID at position i,
// building it at the first call.
func (r *Relation) index(i int) *posIndex {
	if x := r.idx[i].Load(); x != nil {
		return x
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if x := r.idx[i].Load(); x != nil {
		return x
	}
	x := &posIndex{heads: map[ID]span{}, next: make([]int32, 0, r.n)}
	for off := 0; off < r.n; off++ {
		x.add(r.rows[off*r.arity+i], int32(off))
	}
	r.idx[i].Store(x)
	return x
}

// add appends off, the next offset, to id's list.
func (x *posIndex) add(id ID, off int32) {
	x.next = append(x.next, -1)
	sp, ok := x.heads[id]
	if !ok {
		x.heads[id] = span{off, off, 1}
		return
	}
	x.next[sp.last] = off
	sp.last, sp.n = off, sp.n+1
	x.heads[id] = sp
}

// before returns the offset before off in the list sp, -1 at its head.
func (x *posIndex) before(sp span, off int32) int32 {
	prev := int32(-1)
	for o := sp.first; o != off; o = x.next[o] {
		prev = o
	}
	return prev
}

// unlink takes off out of id's list.
func (x *posIndex) unlink(id ID, off int32) {
	sp := x.heads[id]
	if sp.n == 1 {
		delete(x.heads, id)
		return
	}
	prev := x.before(sp, off)
	if prev < 0 {
		sp.first = x.next[off]
	} else {
		x.next[prev] = x.next[off]
	}
	if sp.last == off {
		sp.last = prev
	}
	sp.n--
	x.heads[id] = sp
}

// move renames offset from to to in id's list, in place.
func (x *posIndex) move(id ID, from, to int32) {
	sp := x.heads[id]
	if prev := x.before(sp, from); prev < 0 {
		sp.first = to
	} else {
		x.next[prev] = to
	}
	if sp.last == from {
		sp.last = to
	}
	x.next[to] = x.next[from]
	x.heads[id] = sp
}

// Interner returns the interner of s's lineage.
func (s *Store) Interner() *Interner { return s.in }

// slot returns the slot of pred's relation of arity n.
func (s *Store) slot(pred string, n int) (int, bool) {
	for _, i := range s.ids[pred] {
		if s.arity[i] == n {
			return i, true
		}
	}
	return 0, false
}

// relOf returns pred's relation of arity n, nil when the store holds no
// tuple of it.
func (s *Store) relOf(pred string, n int) *Relation {
	if i, ok := s.slot(pred, n); ok {
		return s.rels[i]
	}
	return nil
}

// put makes r, a relation s made, pred's relation of r's arity, giving it a
// slot when it has none.
func (s *Store) put(pred string, r *Relation) {
	r.stamp = s.stamp
	if i, ok := s.slot(pred, r.arity); ok {
		s.rels[i] = r
		return
	}
	if s.idsShared {
		s.ids, s.arity, s.idsShared = maps.Clone(s.ids), slices.Clip(s.arity), false
	}
	s.ids[pred] = append(slices.Clip(s.ids[pred]), len(s.rels))
	s.arity = append(s.arity, r.arity)
	s.rels = append(s.rels, r)
}

// own returns the relation in slot i ready to be mutated — a shared one
// replaced by a private flat copy or delta, a delta that reached FoldAt
// folded — or nil when the slot is empty.
func (s *Store) own(i int) *Relation {
	r := s.rels[i]
	switch {
	case r == nil:
		return nil
	case r.base != nil && r.changes() >= FoldAt(r.base.n):
		r = r.fold()
	case r.stamp == s.stamp:
		return r
	case r.base != nil || r.n < flatCopyBelow:
		r = r.clone()
	default:
		r = newDelta(r)
	}
	r.stamp = s.stamp
	s.rels[i] = r
	return r
}

// Relation returns pred's relation of the given arity for s's owner to fill
// with Add, making it when s has none: the compiled engine builds its model
// in the store it returns this way. The relation is private to s until s
// is cloned.
func (s *Store) Relation(pred string, arity int) *Relation {
	i, ok := s.slot(pred, arity)
	if !ok || s.rels[i] == nil {
		r := newRelation(arity)
		s.put(pred, r)
		return r
	}
	return s.own(i)
}

// rowBuf is the stack room for the rows of the usual arities.
type rowBuf [8]ID

// buf returns a row of n IDs, in b when it is large enough.
func (b *rowBuf) buf(n int) []ID {
	if n <= len(b) {
		return b[:n]
	}
	return make([]ID, n)
}

// find returns the slot and the row of the ground atom a's relation, and
// whether the store holds a; the row is in b.
func (s *Store) find(a Atom, b *rowBuf) (slot int, row []ID, ok bool) {
	i, ok := s.slot(a.Pred, len(a.Args))
	if !ok || s.rels[i] == nil {
		return 0, nil, false
	}
	row = b.buf(len(a.Args))
	if !s.in.lookupRow(a.Args, row) {
		return 0, nil, false
	}
	return i, row, s.rels[i].Has(row)
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
	var b rowBuf
	row := b.buf(len(a.Args))
	for j, t := range a.Args {
		row[j], _ = s.in.Intern(t)
	}
	i, ok := s.slot(a.Pred, len(row))
	var r *Relation
	switch {
	case !ok || s.rels[i] == nil:
		r = newRelation(len(row))
		s.put(a.Pred, r)
	case s.rels[i].Has(row):
		return false, nil
	default:
		r = s.own(i)
	}
	r.add(row)
	return true, nil
}

// Contains reports whether the ground atom is present.
func (s *Store) Contains(a Atom) bool {
	var b rowBuf
	_, _, ok := s.find(a, &b)
	return ok
}

// Remove deletes a ground fact, reporting whether it was present. Removal
// swap-deletes within the relation, so it perturbs insertion order;
// rendering and query paths sort or deduplicate, so observable results are
// unaffected.
func (s *Store) Remove(a Atom) bool {
	var b rowBuf
	i, row, ok := s.find(a, &b)
	if !ok {
		return false
	}
	r := s.own(i)
	r.remove(row)
	if r.Len() == 0 {
		s.rels[i] = nil
	}
	return true
}

// appendAtoms appends the relation's tuples, as atoms of pred, to dst: a
// delta's live base tuples, then its added ones.
func (r *Relation) appendAtoms(dst []Atom, pred string, d symbols) []Atom {
	args := make([]term.Term, 0, r.Len()*r.arity)
	emit := func(row []ID) {
		start := len(args)
		for _, id := range row {
			args = append(args, d.term(id))
		}
		dst = append(dst, Atom{Pred: pred, Args: args[start:len(args):len(args)]})
	}
	if b := r.base; b != nil {
		for off := 0; off < b.n; off++ {
			if !r.dead[off] {
				emit(b.row(off))
			}
		}
	}
	for off := 0; off < r.n; off++ {
		emit(r.row(off))
	}
	return dst
}

// Facts returns all facts for a predicate in insertion order, in a slice
// of its own; a predicate of several arities lists them arity by arity.
func (s *Store) Facts(pred string) []Atom {
	var out []Atom
	d := s.in.symbols()
	for _, i := range s.ids[pred] {
		if r := s.rels[i]; r != nil && r.Len() > 0 {
			out = r.appendAtoms(out, pred, d)
		}
	}
	return out
}

// has reports whether the store holds a tuple of pred.
func (s *Store) has(pred string) bool {
	for _, i := range s.ids[pred] {
		if r := s.rels[i]; r != nil && r.Len() > 0 {
			return true
		}
	}
	return false
}

// Len returns the total number of facts.
func (s *Store) Len() int {
	n := 0
	for _, r := range s.rels {
		if r != nil {
			n += r.Len()
		}
	}
	return n
}

// Preds returns the predicates present, sorted.
func (s *Store) Preds() []string {
	var out []string
	for p := range s.ids {
		if s.has(p) {
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
// an answer copies what it needs (Apply). fn may call Match again with it,
// and may insert into the store: Match visits the tuples it found on entry.
//
// The arguments query makes ground under base are compared as IDs — one the
// lineage never interned matches nothing — and the rest unified with the
// interned terms. A delta relation yields its live base tuples, then its
// added ones. Match probes an argument index — the pair of a delta's and its
// base's lists — at the most selective argument position the query, under
// base, makes ground.
func (s *Store) Match(query Atom, base term.Subst, fn func(term.Subst) bool) {
	r := s.relOf(query.Pred, len(query.Args))
	if r == nil {
		return
	}
	var wb rowBuf
	want := wb.buf(len(query.Args))
	var fixed uint64 // the positions ground under base, by bit; their IDs in want
	for i, t := range query.Args {
		if i == 64 {
			break
		}
		bound := base.Apply(t)
		if !bound.IsGround() {
			continue
		}
		id, ok := s.in.Lookup(bound)
		if !ok {
			return
		}
		want[i], fixed = id, fixed|1<<i
	}
	d := s.in.symbols()
	var tb [8]string
	try := func(row []ID) bool {
		for m := fixed; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); row[i] != want[i] {
				return true
			}
		}
		trail, ok := tb[:0], true
		for i, t := range query.Args {
			if i < 64 && fixed&(1<<i) != 0 {
				continue
			}
			if trail, ok = term.UnifyTrail(t, d.term(row[i]), base, trail); !ok {
				break
			}
		}
		more := !ok || fn(base)
		base.Undo(trail)
		return more
	}
	// flat is the relation holding the tuples under their offsets: r itself,
	// or a delta's base, whose dead offsets are skipped and whose added
	// tuples and their index are r's own.
	flat, added, addedN := r, (*Relation)(nil), 0
	if r.base != nil {
		flat, added, addedN = r.base, r, r.n
	}
	flatN := flat.n
	if s.indexing && fixed != 0 {
		var fx, ax *posIndex
		var fsp, asp span
		best := false
		for m := fixed; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			x := flat.index(i)
			sp := x.heads[want[i]]
			var y *posIndex
			var ysp span
			if addedN > 0 {
				y = added.index(i)
				ysp = y.heads[want[i]]
			}
			if !best || sp.n+ysp.n < fsp.n+asp.n {
				best, fx, fsp, ax, asp = true, x, sp, y, ysp
			}
		}
		for o, k := fsp.first, fsp.n; k > 0; o, k = fx.next[o], k-1 {
			if !r.dead[int(o)] && !try(flat.row(int(o))) {
				return
			}
		}
		for o, k := asp.first, asp.n; k > 0; o, k = ax.next[o], k-1 {
			if !try(added.row(int(o))) {
				return
			}
		}
		return
	}
	for off := 0; off < flatN; off++ {
		if !r.dead[off] && !try(flat.row(off)) {
			return
		}
	}
	for off := 0; off < addedN; off++ {
		if !try(added.row(off)) {
			return
		}
	}
}

// Clone returns a store with the same facts that can be mutated without
// affecting s, and vice versa. It copies a slice of one pointer per relation,
// shares the slot map, the slot arities and the interner, and draws s a new
// stamp, in two allocations and no visit to a relation whatever the store's
// size: relations are shared and replaced on first write, the slot map copied
// by the first store to add a predicate (see Store). Clone may run beside
// readers of s, but not beside a writer or another Clone of s. Fault hooks
// are not cloned: a clone is a private working copy.
func (s *Store) Clone() *Store {
	s.stamp, s.idsShared = newStamp(), true
	return &Store{in: s.in, ids: s.ids, arity: s.arity, rels: slices.Clone(s.rels),
		idsShared: true, stamp: newStamp(), indexing: s.indexing}
}

// support returns the base-assertion count of the stored ground fact a, and
// whether it is stored.
func (s *Store) support(a Atom) (int, bool) {
	var b rowBuf
	i, row, ok := s.find(a, &b)
	if !ok {
		return 0, false
	}
	off, own, _ := s.rels[i].lookup(row)
	return s.rels[i].count(off, own), true
}

// setSupport overwrites the base-assertion count of the stored fact a.
// Writing the value already there leaves a shared relation shared.
func (s *Store) setSupport(a Atom, base int) {
	var b rowBuf
	i, row, ok := s.find(a, &b)
	if !ok {
		return
	}
	if off, own, _ := s.rels[i].lookup(row); s.rels[i].count(off, own) == base {
		return
	}
	r := s.own(i)
	off, own, _ := r.lookup(row)
	r.setCount(off, own, base)
}

// supports returns every stored fact's base-assertion count, by fact key.
func (s *Store) supports() map[string]int {
	out := make(map[string]int, s.Len())
	d := s.in.symbols()
	var kb []byte
	key := func(pred string, row []ID) string {
		kb = append(kb[:0], pred...)
		kb = append(kb, '(')
		for j, id := range row {
			if j > 0 {
				kb = append(kb, ',')
			}
			kb = append(kb, d.key(id)...)
		}
		return string(append(kb, ')'))
	}
	for pred, slots := range s.ids {
		for _, i := range slots {
			r := s.rels[i]
			if r == nil {
				continue
			}
			if b := r.base; b != nil {
				for off := 0; off < b.n; off++ {
					if !r.dead[off] {
						out[key(pred, b.row(off))] = r.count(off, false)
					}
				}
			}
			for off := 0; off < r.n; off++ {
				out[key(pred, r.row(off))] = r.count(off, true)
			}
		}
	}
	return out
}

// String renders all facts sorted, one per line — handy in tests and the CLI.
func (s *Store) String() string {
	var lines []string
	for _, p := range s.Preds() {
		for _, f := range s.Facts(p) {
			lines = append(lines, f.String()+".")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
