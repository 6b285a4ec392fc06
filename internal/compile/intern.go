// Package compile is the compiled bottom-up execution subsystem (ROADMAP
// item 1): ground terms are interned into dense integer IDs, facts live in
// columnar per-predicate relations with hash indexes built lazily per
// bound-argument pattern, and each stratum's rules are compiled once into
// reusable hash-join pipelines that run semi-naively over the IDs. Compiled
// plans depend only on a program's rules, so they are cached (keyed by rule
// set hash and seed adornment) and shared across fact sets — the server's
// per-clearance prepared reductions hit the cache on every fact-only write.
//
// The compiler refuses, with *ErrFallback, the few constructs the register
// machine does not model (non-ground compound terms, '=' between two
// still-unbound variables) plus — per the plan-selection contract with
// internal/analysis — programs whose Summary reports nonlinear recursion
// (DL010). Callers fall back to the tree-walking interpreter; the
// differential harness keeps both in byte-agreement.
package compile

import (
	"repro/internal/resource"
	"repro/internal/term"
)

// ID is a dense interned identifier for one ground term. IDs are local to
// one Interner; two terms are equal iff their IDs under the same interner
// are equal (term.Key is injective on ground terms).
type ID uint32

// internerEntryOverhead approximates the map + slice bookkeeping retained
// per interned symbol, charged to the memory budget alongside the key text.
const internerEntryOverhead = 48

// Interner hash-conses ground terms to dense IDs with a reverse table for
// output. It is append-only and not synchronized: a run interns from its one
// goroutine; lookups on a quiescent interner are safe from any number.
type Interner struct {
	gov   *resource.Governor
	ids   map[string]ID
	terms []term.Term
	keys  []string // canonical key per ID (shares data with the ids keys)
}

// NewInterner builds an interner charging its table memory to gov (which
// may be nil for an ungoverned run).
func NewInterner(gov *resource.Governor) *Interner {
	return &Interner{gov: gov, ids: make(map[string]ID)}
}

// Intern returns the dense ID for a ground term, assigning one on first
// sight. Non-ground terms cannot be interned; callers must compile
// variables to registers instead (the compiler guarantees this by
// construction, so the error is a defensive contract check).
func (in *Interner) Intern(t term.Term) (ID, error) {
	if !t.IsGround() {
		return 0, &ErrFallback{Reason: "cannot intern non-ground term " + t.String()}
	}
	key := t.Key()
	if id, ok := in.ids[key]; ok {
		return id, nil
	}
	id := ID(len(in.terms))
	if err := in.gov.Charge(int64(len(key) + internerEntryOverhead)); err != nil {
		return 0, err
	}
	in.ids[key] = id
	in.terms = append(in.terms, t)
	in.keys = append(in.keys, key)
	return id, nil
}

// keyLen returns the canonical key length of an interned term, used to
// mirror the interpreter's structural fact-size estimate.
func (in *Interner) keyLen(id ID) int64 { return int64(len(in.keys[id])) }

// key returns the canonical term key of an interned term without
// recomputing it, so externalization can assemble fact keys by
// concatenation alone.
func (in *Interner) key(id ID) string { return in.keys[id] }

// Extern maps an ID back to its term. IDs come from this interner, so an
// out-of-range ID is a programming error; Extern returns the zero term for
// robustness rather than panicking.
func (in *Interner) Extern(id ID) term.Term {
	if int(id) >= len(in.terms) {
		return term.Term{}
	}
	return in.terms[id]
}

// Len returns the number of interned symbols.
func (in *Interner) Len() int { return len(in.terms) }
