package datalog

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/term"
)

// ID is a dense interned identifier for one ground term. IDs are local to
// one Interner; two ground terms are equal iff their IDs under the same
// interner are (term.Key is injective on ground terms).
type ID uint32

// Interner hash-conses ground terms to dense IDs for a store lineage: a
// store built by NewStore, NewStoreNoIndex or the compiled engine, and every
// clone of it. It is append-only and never reuses an ID, so a tuple's row of
// IDs means the same in every store of the lineage.
//
// One writer appends at a time — a lineage's writes are serialized by
// whoever owns its stores: the server's update lock, or the engine that
// builds a store — while readers query published stores. A reader resolves
// an ID it found in a stored row with no lock: the terms sit in chunks that
// never move, and the directory of chunks is replaced and published
// atomically when the writer adds one. Looking up the ID of a term — a
// query's constant — takes the read lock on the key map, which the writer
// holds for writing while it adds a key. A term never interned has no ID,
// and no stored tuple holds it.
type Interner struct {
	mu  sync.RWMutex
	ids map[string]ID // term key -> ID; guarded by mu
	// own is the writer's directory and n the IDs it handed out; dir
	// publishes own each time it gains a chunk.
	own symbols
	n   int
	dir atomic.Pointer[symbols]
}

// symbol is one interned term and its key, which the key map shares.
type symbol struct {
	t   term.Term
	key string
}

// symbols is a directory of chunks: chunk k holds 1<<(firstChunkBits+k)
// symbols, so a lineage of a handful of terms allocates a small chunk and
// a large one a chunk per doubling.
type symbols [][]symbol

const firstChunkBits = 5

// chunkOf returns the chunk holding id and its offset there.
func chunkOf(id ID) (k int, off uint64) {
	v := uint64(id) + 1<<firstChunkBits
	k = bits.Len64(v) - firstChunkBits - 1
	return k, v - 1<<(firstChunkBits+k)
}

// term returns the term with ID id, which d covers.
func (d symbols) term(id ID) term.Term {
	k, off := chunkOf(id)
	return d[k][off].t
}

// key returns the key of the term with ID id, which d covers.
func (d symbols) key(id ID) string {
	k, off := chunkOf(id)
	return d[k][off].key
}

// NewInterner returns an empty interner: the start of a lineage.
func NewInterner() *Interner {
	in := &Interner{ids: map[string]ID{}}
	in.dir.Store(&symbols{})
	return in
}

// symbols returns the published directory: it covers every ID handed out
// before the call.
func (in *Interner) symbols() symbols { return *in.dir.Load() }

// Intern returns the ID of the ground term t, giving it the next one on
// first sight, and reports whether it did. Only the lineage's writer calls
// it.
func (in *Interner) Intern(t term.Term) (ID, bool) {
	var kb [64]byte
	k := t.AppendKey(kb[:0])
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	if ok {
		return id, false
	}
	id = ID(in.n)
	c, off := chunkOf(id)
	if c == len(in.own) {
		in.own = append(in.own, make([]symbol, 1<<(firstChunkBits+c)))
		d := in.own
		in.dir.Store(&d)
	}
	key := string(k)
	in.own[c][off] = symbol{t: t, key: key}
	in.mu.Lock()
	in.ids[key] = id
	in.mu.Unlock()
	in.n++
	return id, true
}

// Lookup returns the ID of the ground term t, if it was ever interned.
func (in *Interner) Lookup(t term.Term) (ID, bool) {
	var kb [64]byte
	k := t.AppendKey(kb[:0])
	in.mu.RLock()
	id, ok := in.ids[string(k)]
	in.mu.RUnlock()
	return id, ok
}

// lookupRow fills row with the IDs of the ground terms args, under one read
// lock; it reports false, at the first term never interned, when there is
// no such row.
func (in *Interner) lookupRow(args []term.Term, row []ID) bool {
	var kb [64]byte
	in.mu.RLock()
	defer in.mu.RUnlock()
	for i, t := range args {
		id, ok := in.ids[string(t.AppendKey(kb[:0]))]
		if !ok {
			return false
		}
		row[i] = id
	}
	return true
}

// Term returns the term with ID id, which this interner handed out.
func (in *Interner) Term(id ID) term.Term { return in.symbols().term(id) }

// Key returns the key (term.Key) of the term with ID id.
func (in *Interner) Key(id ID) string { return in.symbols().key(id) }

// Len returns the number of interned terms.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.ids)
}
