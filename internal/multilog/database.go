package multilog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/datalog"
	"repro/internal/lattice"
	"repro/internal/mls"
	"repro/internal/term"
)

// Database is a MultiLog database Δ = ⟨Λ, Σ, Π, Q⟩ (Definition 5.1):
// Λ holds the l- and h-clauses defining the security lattice, Σ the
// m-clauses defining the secured data, Π the classical p-clauses, and
// Queries the stored queries Q.
type Database struct {
	Lambda  []Clause
	Sigma   []Clause
	Pi      []Clause
	Queries []Query

	poset  *lattice.Poset // cached by Poset()
	posetN int            // len(Lambda) the cache was built from
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{} }

// AddClause routes a clause into Λ, Σ or Π by its head kind; a Λ clause
// invalidates the cached lattice.
func (db *Database) AddClause(c Clause) error {
	switch c.Head.Kind {
	case GoalL, GoalH:
		db.Lambda = append(db.Lambda, c)
		db.poset = nil
	case GoalM:
		db.Sigma = append(db.Sigma, c)
	case GoalP:
		db.Pi = append(db.Pi, c)
	case GoalB:
		return fmt.Errorf("multilog: b-atoms may not appear in clause heads: %s", c)
	default:
		return fmt.Errorf("multilog: cannot place clause %s", c)
	}
	return nil
}

// Clone returns a copy of the database whose four component slices are
// fresh, so growing, filtering or replacing the clone's clauses never reaches
// the original; the clauses themselves are shared, for a parsed clause is
// immutable. The cached lattice (immutable once built) is carried over, and
// AddClause drops it when a Λ clause arrives. A clone copies all of Σ: the
// server's write path derives a Version instead, which copies what a write
// changes; Clone serves the tests' flat references and bench/'s mirror.
func (db *Database) Clone() *Database {
	return &Database{
		Lambda:  slices.Clone(db.Lambda),
		Sigma:   slices.Clone(db.Sigma),
		Pi:      slices.Clone(db.Pi),
		Queries: slices.Clone(db.Queries),
		poset:   db.poset,
		posetN:  db.posetN,
	}
}

// String renders the database in the four-component layout of Figure 10.
func (db *Database) String() string {
	var b strings.Builder
	write := func(name string, cs []Clause) {
		fmt.Fprintf(&b, "%% %s\n", name)
		for _, c := range cs {
			b.WriteString(c.String())
			b.WriteByte('\n')
		}
	}
	write("Lambda", db.Lambda)
	write("Sigma", db.Sigma)
	write("Pi", db.Pi)
	b.WriteString("% Queries\n")
	for _, q := range db.Queries {
		b.WriteString(q.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Poset evaluates Λ with the classical engine and builds the security
// lattice from the resulting level/1 and order/2 facts. The result is
// cached; a Λ clause added since (through AddClause or by appending to
// Lambda) invalidates it.
func (db *Database) Poset() (*lattice.Poset, error) {
	if db.poset != nil && db.posetN == len(db.Lambda) {
		return db.poset, nil
	}
	prog := &datalog.Program{}
	for _, c := range db.Lambda {
		dc, err := lambdaClause(c)
		if err != nil {
			return nil, err
		}
		prog.Add(dc)
	}
	model, err := datalog.Eval(prog, nil)
	if err != nil {
		return nil, fmt.Errorf("multilog: evaluating Λ: %w", err)
	}
	p := lattice.New()
	for _, f := range model.Facts("level") {
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("multilog: level/%d fact %s; level is unary", len(f.Args), f)
		}
		p.Add(lattice.Label(f.Args[0].Name()))
	}
	for _, f := range model.Facts("order") {
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("multilog: order/%d fact %s; order is binary", len(f.Args), f)
		}
		lo, hi := lattice.Label(f.Args[0].Name()), lattice.Label(f.Args[1].Name())
		if !p.Has(lo) || !p.Has(hi) {
			return nil, fmt.Errorf("multilog: order(%s, %s) uses a level not asserted by level/1", lo, hi)
		}
		if err := p.AddOrder(lo, hi); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("multilog: Λ does not define a partial order: %w", err)
	}
	db.poset, db.posetN = p, len(db.Lambda)
	return p, nil
}

// lambdaClause converts an l/h-clause to a classical clause, enforcing the
// first admissibility condition: Λ bodies may mention only l- and h-atoms
// (and built-ins).
func lambdaClause(c Clause) (datalog.Clause, error) {
	out := datalog.Clause{Head: c.Head.P}
	for _, g := range c.Body {
		switch g.Kind {
		case GoalL, GoalH:
			out.Body = append(out.Body, datalog.Pos(g.P))
		case GoalP:
			if !g.P.IsBuiltin() {
				return datalog.Clause{}, fmt.Errorf("multilog: inadmissible Λ clause %s: body atom %s is not an l- or h-atom", c, g)
			}
			out.Body = append(out.Body, datalog.Pos(g.P))
		default:
			return datalog.Clause{}, fmt.Errorf("multilog: inadmissible Λ clause %s: body atom %s is not an l- or h-atom", c, g)
		}
	}
	return out, nil
}

// CheckAdmissible verifies Definition 5.3: Λ's dependency graph stays
// within l/h-atoms (enforced structurally by lambdaClause), Λ defines a
// partial order, and every ground security label appearing in Σ is asserted
// by ⟦Λ⟧.
func (db *Database) CheckAdmissible() error {
	p, err := db.Poset()
	if err != nil {
		return err
	}
	checkTerm := func(c Clause, t term.Term, what string) error {
		if t.Kind() != term.KindConst {
			return nil // variables range over asserted levels by construction
		}
		if !p.Has(lattice.Label(t.Name())) {
			return fmt.Errorf("multilog: inadmissible clause %s: %s %q is not asserted by Λ", c, what, t.Name())
		}
		return nil
	}
	for _, c := range db.Sigma {
		goals := append([]Goal{c.Head}, c.Body...)
		for _, g := range goals {
			if g.Kind != GoalM && g.Kind != GoalB {
				continue
			}
			if err := checkTerm(c, g.M.Level, "security level"); err != nil {
				return err
			}
			if err := checkTerm(c, g.M.Class, "classification"); err != nil {
				return err
			}
		}
	}
	return nil
}

// FromRelation encodes an MLS relation as MultiLog m-facts (Example 5.1's
// encoding of the Mission tuples), adding Λ facts for the relation's
// lattice. Null cells encode as the distinguished null term.
func FromRelation(r *mls.Relation) (*Database, error) {
	db := NewDatabase()
	p := r.Scheme.Poset
	for _, l := range p.Labels() {
		db.Lambda = append(db.Lambda, Clause{Head: PGoal(datalog.NewAtom("level", term.Const(string(l))))})
	}
	for _, e := range p.CoverEdges() {
		db.Lambda = append(db.Lambda, Clause{Head: PGoal(datalog.NewAtom("order",
			term.Const(string(e[0])), term.Const(string(e[1]))))})
	}
	for _, t := range r.Tuples {
		key := t.Values[r.Scheme.KeyIdx]
		if key.Null {
			return nil, fmt.Errorf("multilog: cannot encode tuple with null key")
		}
		for i, v := range t.Values {
			val := term.Const(v.Data)
			if v.Null {
				val = term.Null()
			}
			m := MAtom{
				Level: term.Const(string(t.TC)),
				Pred:  r.Scheme.Name,
				Key:   term.Const(key.Data),
				Attr:  r.Scheme.Attrs[i],
				Class: term.Const(string(v.Class)),
				Value: val,
			}
			db.Sigma = append(db.Sigma, Clause{Head: MGoal(m)})
		}
	}
	db.poset = nil
	return db, nil
}

// D1Source is the paper's Figure 10 database as MultiLog source text, for
// callers (the multilogd daemon, demos) that want to re-parse it
// themselves.
const D1Source = `
		level(u).  level(c).  level(s).    % r1 - r3
		order(u, c).  order(c, s).         % r4 - r5
		u[p(k: a -u-> v)].                 % r6
		c[p(k: a -c-> t)] :- q(j).         % r7
		s[p(k: a -u-> v)] :- c[p(k: a -c-> t)] << cau.  % r8
		q(j).                              % r9
		?- c[p(k: a -R-> v)] << opt.       % r10 (Example 5.2)
	`

// D1 returns the paper's Figure 10 database, used by Example 5.2 and the
// Figure 11 proof tree.
//
// The panic below is deliberate and audited: the source is a compile-time
// constant, so a parse failure is a programming error in this file, not a
// user-reachable condition (TestStaticFixturesNeverPanic pins this). All
// user-supplied input goes through Parse/ParseGoals, which return errors.
func D1() *Database {
	db, err := Parse(D1Source)
	if err != nil {
		panic(err) //vet:allow nopanic -- static input; cannot fail
	}
	return db
}

// D1Query returns the Figure 11 query r10: ?- c[p(k : a -R-> v)] << opt.
func D1Query() Query {
	goals, err := ParseGoals("c[p(k: a -R-> v)] << opt")
	if err != nil {
		panic(err) //vet:allow nopanic -- static input; cannot fail (see the D1 audit note)
	}
	return goals
}
