// Package compile is the compiled bottom-up execution subsystem (ROADMAP
// item 1): ground terms are interned into dense integer IDs, facts live as
// rows of IDs in the relations of the datalog.Store a run returns as the
// model, with the run's hash indexes built lazily per bound-argument
// pattern, and each stratum's rules are compiled once into reusable
// hash-join pipelines that run semi-naively over the IDs. Compiled
// plans depend only on a program's rules, so they are cached (keyed by rule
// set hash and seed adornment) and shared across fact sets — the server's
// per-clearance prepared reductions hit the cache on every fact-only write.
//
// The compiler refuses, with *ErrFallback, the few constructs the register
// machine does not model (non-ground compound terms, '=' between two
// still-unbound variables) plus programs with nonlinear recursion
// (analysis.Nonlinear, lint's DL010). Callers fall back to the tree-walking
// interpreter; the differential harness keeps both in byte-agreement.
package compile

import (
	"repro/internal/datalog"
	"repro/internal/resource"
	"repro/internal/term"
)

// ID is a dense interned identifier for one ground term: the IDs of the
// store a run builds its model in (datalog.ID).
type ID = datalog.ID

// internerEntryOverhead approximates the map + slice bookkeeping retained
// per interned symbol, charged to the memory budget alongside the key text.
const internerEntryOverhead = 48

// Interner interns a run's ground terms into the lineage of the store it
// builds, charging each new symbol's table memory to the run's governor.
// A run interns from its one goroutine.
type Interner struct {
	gov *resource.Governor
	in  *datalog.Interner
}

// NewInterner builds an interner of a fresh lineage charging its table
// memory to gov (which may be nil for an ungoverned run).
func NewInterner(gov *resource.Governor) *Interner {
	return &Interner{gov: gov, in: datalog.NewInterner()}
}

// Intern returns the dense ID for a ground term, assigning one on first
// sight. Non-ground terms cannot be interned; callers must compile
// variables to registers instead (the compiler guarantees this by
// construction, so the error is a defensive contract check).
func (in *Interner) Intern(t term.Term) (ID, error) {
	if !t.IsGround() {
		return 0, &ErrFallback{Construct: "non-ground compound", Reason: "cannot intern non-ground term " + t.String()}
	}
	id, fresh := in.in.Intern(t)
	if fresh {
		if err := in.gov.Charge(in.keyLen(id) + internerEntryOverhead); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// keyLen returns the canonical key length of an interned term, used to
// mirror the interpreter's structural fact-size estimate.
func (in *Interner) keyLen(id ID) int64 { return int64(len(in.in.Key(id))) }

// Extern maps an ID back to its term. IDs come from this interner, so an
// out-of-range ID is a programming error; Extern returns the zero term for
// robustness rather than panicking.
func (in *Interner) Extern(id ID) term.Term {
	if int(id) >= in.in.Len() {
		return term.Term{}
	}
	return in.in.Term(id)
}

// Len returns the number of interned symbols.
func (in *Interner) Len() int { return in.in.Len() }
