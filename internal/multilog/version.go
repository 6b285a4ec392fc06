package multilog

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/datalog"
)

// Version is one version of a database, persistent: a write derives the next
// version and leaves this one as it was, so readers keep materializing,
// rendering and reducing it while a writer goes on. It is a frozen flat base
// plus a delta — the Σ/Π clauses added since the base, in write order, and
// the base clauses retracted since, tombstoned by offset — so a write copies
// the clauses it changes and the delta, not Σ. The write that brings the delta
// to datalog.FoldAt(|base Σ|+|base Π|) changes folds it into a fresh flat
// base: the fold's copy of Σ is paid once per O(√n) changes, the idiom of
// datalog's relations and rule sets. Λ and the stored queries are the base's;
// a version writes Σ and Π only.
type Version struct {
	base              *versionBase
	addSigma, addPi   []Clause // added since the base, in write order
	deadSigma, deadPi []int    // base offsets retracted since the base, ascending

	env *Database // Λ, Π and the queries, Σ left out: shared while Π is unchanged

	once sync.Once
	db   *Database // the materialized database, built by Database
}

// versionBase is a frozen flat database and, from the first retract against
// it, the index of its Σ and Π offsets by head signature.
type versionBase struct {
	db *Database

	indexOnce sync.Once
	index     map[clauseSig][]int // Σ offsets for an m-head, Π offsets for a p-head

	bodyOnce sync.Once
	readers  map[string][]int // Σ offsets by the classical predicates their bodies read
}

// NewVersion returns a version whose base is db, which must not be modified
// afterwards: every version derived from it shares its clauses.
func NewVersion(db *Database) *Version {
	return &Version{base: &versionBase{db: db}, env: db.without(db.Pi)}
}

// without returns the database with Σ left out and Π replaced by pi, sharing
// Λ, the queries and the cached lattice.
func (db *Database) without(pi []Clause) *Database {
	return &Database{Lambda: db.Lambda, Pi: pi, Queries: db.Queries, poset: db.poset, posetN: db.posetN}
}

// Database returns the version as a flat database, materialized once per
// version; with an empty delta it is the base itself. Σ and Π hold the base's
// clauses not retracted since, in base order, then the added ones in write
// order: the order filtering retracted clauses out in place and appending
// added ones leaves, so String renders what a flat database written the same
// way renders. The database is shared and must not be modified.
func (v *Version) Database() *Database {
	v.once.Do(func() {
		if v.changes() == 0 {
			v.db = v.base.db
			return
		}
		v.db = v.env.without(v.env.Pi)
		v.db.Sigma = materialize(v.base.db.Sigma, v.deadSigma, v.addSigma)
	})
	return v.db
}

// Env returns the version's Λ, Π and stored queries with Σ left out, sharing
// the cached lattice: the environment a Σ clause is judged in (lint's Error
// passes read no other Σ clause). A Σ write shares its parent's, so it costs
// nothing; a Π write builds its own, copying Π. It must not be modified.
func (v *Version) Env() *Database { return v.env }

// SigmaReads reports whether a Σ clause of the version reads the classical
// predicate pred in its body: through the base's index of Σ offsets by the
// classical predicates their bodies read, built at the first call, and a walk
// of the Σ clauses added since. It never walks the base's Σ again.
func (v *Version) SigmaReads(pred string) bool {
	for _, off := range v.base.bodyIndex()[pred] {
		if _, tomb := slices.BinarySearch(v.deadSigma, off); !tomb {
			return true
		}
	}
	for i := range v.addSigma {
		for j := range v.addSigma[i].Body {
			if g := &v.addSigma[i].Body[j]; g.Kind == GoalP && g.P.Pred == pred {
				return true
			}
		}
	}
	return false
}

// Counts returns |Λ|, |Σ| and |Π| without materializing the database.
func (v *Version) Counts() (lambda, sigma, pi int) {
	b := v.base.db
	return len(b.Lambda), len(b.Sigma) - len(v.deadSigma) + len(v.addSigma), len(v.env.Pi)
}

// Write returns the version with every clause equal to one of removed taken
// out and then the clauses of added appended, and the clauses it took out:
// every equal copy, those of Σ first and then those of Π, each in database
// order. A retracted clause that was added since the base leaves the delta; a
// retracted base clause is tombstoned, found through the base's head-signature
// index. v is never modified. A write that changes nothing returns v; a Λ
// clause or a b-atom head is an error.
func (v *Version) Write(added, removed []Clause) (*Version, []Clause, error) {
	for _, c := range slices.Concat(added, removed) {
		switch c.Head.Kind {
		case GoalM, GoalP:
		case GoalL, GoalH:
			return nil, nil, fmt.Errorf("multilog: %s would change the lattice Λ, which a version fixes", c)
		default:
			return nil, nil, fmt.Errorf("multilog: cannot place clause %s", c)
		}
	}
	next := v.fork()
	var out []Clause
	piChanged := false
	if len(removed) > 0 {
		gone := map[clauseSig][]Clause{}
		for _, c := range removed {
			sig := sigOf(c)
			gone[sig] = append(gone[sig], c)
		}
		out = next.retract(out, gone, GoalM, v.base.db.Sigma, &next.deadSigma, &next.addSigma)
		nSigma := len(out)
		out = next.retract(out, gone, GoalP, v.base.db.Pi, &next.deadPi, &next.addPi)
		piChanged = len(out) > nSigma
	}
	// Clipped, an append copies the parent's delta instead of writing into
	// its spare capacity, which a sibling version may append into too.
	next.addSigma, next.addPi = slices.Clip(next.addSigma), slices.Clip(next.addPi)
	for _, c := range added {
		if c.Head.Kind == GoalM {
			next.addSigma = append(next.addSigma, c)
		} else {
			next.addPi = append(next.addPi, c)
			piChanged = true
		}
	}
	if len(added)+len(out) == 0 {
		return v, nil, nil
	}
	if piChanged {
		next.env = v.env.without(materialize(v.base.db.Pi, next.deadPi, next.addPi))
	}
	b := v.base.db
	if next.changes() >= datalog.FoldAt(len(b.Sigma)+len(b.Pi)) {
		return NewVersion(next.Database()), out, nil
	}
	return next, out, nil
}

// retract takes out of one component — base, its tombstones *dead and the
// clauses *add added since — every clause of kind equal to a clause in gone,
// and appends them to out, base ones first. dead and add are replaced, never
// written to: the parent version still reads them.
func (v *Version) retract(out []Clause, gone map[clauseSig][]Clause, kind GoalKind, base []Clause, dead *[]int, add *[]Clause) []Clause {
	matches := func(c Clause) bool {
		for _, d := range gone[sigOf(c)] {
			if c.Equal(d) {
				return true
			}
		}
		return false
	}
	var hits []int
	index := v.base.sigIndex()
	for sig := range gone {
		if sig.kind != kind {
			continue
		}
		for _, off := range index[sig] {
			if _, tomb := slices.BinarySearch(*dead, off); !tomb && matches(base[off]) {
				hits = append(hits, off)
			}
		}
	}
	if len(hits) > 0 {
		slices.Sort(hits)
		for _, off := range hits {
			out = append(out, base[off])
		}
		merged := slices.Concat(*dead, hits)
		slices.Sort(merged)
		*dead = merged
	}
	if slices.ContainsFunc(*add, matches) {
		kept := make([]Clause, 0, len(*add))
		for _, c := range *add {
			if matches(c) {
				out = append(out, c)
			} else {
				kept = append(kept, c)
			}
		}
		*add = kept
	}
	return out
}

// fork returns a version of v's base, delta and environment whose database
// is not materialized yet.
func (v *Version) fork() *Version {
	return &Version{base: v.base, addSigma: v.addSigma, addPi: v.addPi,
		deadSigma: v.deadSigma, deadPi: v.deadPi, env: v.env}
}

func (v *Version) changes() int {
	return len(v.addSigma) + len(v.addPi) + len(v.deadSigma) + len(v.deadPi)
}

// materialize is one component of a version: base without its dead offsets,
// then add.
func materialize(base []Clause, dead []int, add []Clause) []Clause {
	if len(dead)+len(add) == 0 {
		return base
	}
	out := make([]Clause, 0, len(base)-len(dead)+len(add))
	prev := 0
	for _, off := range dead {
		out = append(out, base[prev:off]...)
		prev = off + 1
	}
	return append(append(out, base[prev:]...), add...)
}

// sigIndex returns the base's offsets by head signature, built at the first
// call: loading a database and cold builds never pay for it.
func (b *versionBase) sigIndex() map[clauseSig][]int {
	b.indexOnce.Do(func() {
		b.index = make(map[clauseSig][]int, len(b.db.Sigma)+len(b.db.Pi))
		for _, cs := range [][]Clause{b.db.Sigma, b.db.Pi} {
			for off, c := range cs {
				sig := sigOf(c)
				b.index[sig] = append(b.index[sig], off)
			}
		}
	})
	return b.index
}

// bodyIndex returns the base's Σ offsets by the classical predicates their
// bodies read, built at the first call: only a Π retract's lint asks it.
func (b *versionBase) bodyIndex() map[string][]int {
	b.bodyOnce.Do(func() {
		b.readers = map[string][]int{}
		for off := range b.db.Sigma {
			for j := range b.db.Sigma[off].Body {
				if g := &b.db.Sigma[off].Body[j]; g.Kind == GoalP {
					b.readers[g.P.Pred] = append(b.readers[g.P.Pred], off)
				}
			}
		}
	})
	return b.readers
}

// clauseSig is the part of a clause head that is plain strings: a comparable,
// allocation-free prefilter for structural equality — equal clauses have
// equal signatures.
type clauseSig struct {
	kind                   GoalKind
	pred, attr, level, key string
	body                   int
}

func sigOf(c Clause) clauseSig {
	h := c.Head
	if h.Kind == GoalM {
		return clauseSig{h.Kind, h.M.Pred, h.M.Attr, h.M.Level.Name(), h.M.Key.Name(), len(c.Body)}
	}
	sig := clauseSig{kind: h.Kind, pred: h.P.Pred, body: len(c.Body)}
	if len(h.P.Args) > 0 {
		sig.key = h.P.Args[0].Name()
	}
	return sig
}
