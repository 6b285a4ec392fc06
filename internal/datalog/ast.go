// Package datalog implements a classical deductive database engine: Datalog
// with stratified negation, equality built-ins, naive and semi-naive
// bottom-up evaluation, and a top-down SLD prover that yields proof trees.
//
// The engine plays the role of CORAL in the paper's §6: MultiLog programs
// are reduced into this language (predicates rel/6 and bel/7 plus the
// Figure 12 axioms) and evaluated here. It is also a complete, standalone
// Datalog implementation, which Proposition 6.1 requires: Datalog must be
// the special case of MultiLog with empty security components.
package datalog

import (
	"fmt"
	"strings"

	"repro/internal/term"
)

// Built-in predicate names. Built-ins are evaluated in place, never stored.
const (
	BuiltinEq  = "="  // term equality (unification)
	BuiltinNeq = "!=" // ground disequality
)

// Position is a 1-based source position. The zero Position means "no
// position recorded" (e.g. for programmatically built atoms); IsValid
// distinguishes the two. Parsed programs carry positions so diagnostics
// (internal/lint) can point at the offending clause.
type Position struct {
	Line, Col int
}

// IsValid reports whether the position was recorded by a parser.
func (p Position) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "-" for the zero position.
func (p Position) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Atom is a predicate applied to terms: p(t1, ..., tn).
type Atom struct {
	Pred string
	Args []term.Term
	Pos  Position // source position of the atom's first token, if parsed
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...term.Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsBuiltin reports whether the atom's predicate is evaluated in place.
func (a Atom) IsBuiltin() bool { return a.Pred == BuiltinEq || a.Pred == BuiltinNeq }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if !t.IsGround() {
			return false
		}
	}
	return true
}

// Apply returns the atom with the substitution applied to every argument.
func (a Atom) Apply(s term.Subst) Atom {
	if len(s) == 0 {
		return a
	}
	args := make([]term.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Apply(t)
	}
	return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}
}

// Vars appends the variable names occurring in the atom to dst.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		dst = t.Vars(dst)
	}
	return dst
}

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical map key for the (possibly non-ground) atom.
func (a Atom) Key() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Key())
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the atom in surface syntax; built-ins render infix.
func (a Atom) String() string { return string(a.Append(nil)) }

// Append appends the atom's String rendering to dst and returns the
// extended slice.
func (a Atom) Append(dst []byte) []byte {
	if a.IsBuiltin() && len(a.Args) == 2 {
		dst = a.Args[0].Append(dst)
		dst = append(append(append(dst, ' '), a.Pred...), ' ')
		return a.Args[1].Append(dst)
	}
	dst = append(append(dst, term.QuoteIdent(a.Pred)...), '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = t.Append(dst)
	}
	return append(dst, ')')
}

// Literal is an atom or its negation (negation as failure over a stratified
// program).
type Literal struct {
	Atom    Atom
	Negated bool
}

// Pos returns a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// Apply applies a substitution to the literal.
func (l Literal) Apply(s term.Subst) Literal {
	return Literal{Atom: l.Atom.Apply(s), Negated: l.Negated}
}

// String renders the literal; negation prints as "not ".
func (l Literal) String() string {
	if l.Negated {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Clause is a definite clause with optional negated body literals:
// Head :- Body. A clause with an empty body is a fact.
type Clause struct {
	Head Atom
	Body []Literal
}

// Pos returns the clause's source position (its head atom's position).
func (c Clause) Pos() Position { return c.Head.Pos }

// Fact builds a bodyless clause.
func Fact(a Atom) Clause { return Clause{Head: a} }

// Rule builds a clause with the given body.
func Rule(head Atom, body ...Literal) Clause { return Clause{Head: head, Body: body} }

// IsFact reports whether the clause has an empty body.
func (c Clause) IsFact() bool { return len(c.Body) == 0 }

// Equal reports structural equality: the same head and the same body
// literals in the same order, variables compared by name.
func (c Clause) Equal(d Clause) bool {
	if len(c.Body) != len(d.Body) || !c.Head.Equal(d.Head) {
		return false
	}
	for i, l := range c.Body {
		if l.Negated != d.Body[i].Negated || !l.Atom.Equal(d.Body[i].Atom) {
			return false
		}
	}
	return true
}

// Vars appends all variable names in the clause to dst.
func (c Clause) Vars(dst []string) []string {
	dst = c.Head.Vars(dst)
	for _, l := range c.Body {
		dst = l.Atom.Vars(dst)
	}
	return dst
}

// Rename returns the clause with all variables renamed apart using r.
func (c Clause) Rename(r *term.Renamer) Clause {
	memo := map[string]string{}
	freshAtom := func(a Atom) Atom {
		args := make([]term.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = r.Fresh(t, memo)
		}
		return Atom{Pred: a.Pred, Args: args, Pos: a.Pos}
	}
	out := Clause{Head: freshAtom(c.Head)}
	for _, l := range c.Body {
		out.Body = append(out.Body, Literal{Atom: freshAtom(l.Atom), Negated: l.Negated})
	}
	return out
}

// String renders the clause in surface syntax.
func (c Clause) String() string {
	if c.IsFact() {
		return c.Head.String() + "."
	}
	parts := make([]string, len(c.Body))
	for i, l := range c.Body {
		parts[i] = l.String()
	}
	return fmt.Sprintf("%s :- %s.", c.Head, strings.Join(parts, ", "))
}

// Program is a set of clauses plus optional queries (goal clauses ?- G).
type Program struct {
	Clauses []Clause
	Queries []Atom
}

// Add appends clauses to the program.
func (p *Program) Add(cs ...Clause) { p.Clauses = append(p.Clauses, cs...) }

// AddQuery appends a query goal.
func (p *Program) AddQuery(a Atom) { p.Queries = append(p.Queries, a) }

// Predicates returns the set of predicate names defined or used by the
// program (excluding built-ins), in first-occurrence order.
func (p *Program) Predicates() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name == BuiltinEq || name == BuiltinNeq || seen[name] {
			return
		}
		seen[name] = true
		out = append(out, name)
	}
	for _, c := range p.Clauses {
		add(c.Head.Pred)
		for _, l := range c.Body {
			add(l.Atom.Pred)
		}
	}
	for _, q := range p.Queries {
		add(q.Pred)
	}
	return out
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, c := range p.Clauses {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	for _, q := range p.Queries {
		fmt.Fprintf(&b, "?- %s.\n", q)
	}
	return b.String()
}
