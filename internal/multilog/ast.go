// Package multilog implements MultiLog, the paper's logic-based query
// language for multilevel secure deductive databases (§5): the language L
// with its five atom kinds (m-, b-, p-, l- and h-atoms) and m-molecules,
// databases Δ = ⟨Λ, Σ, Π, Q⟩ with admissibility (Definition 5.3) and
// consistency (Definition 5.4), the goal-directed operational semantics of
// Figure 9 with proof trees, and the reduction semantics of §6 that
// translates MultiLog into the classical deductive engine (the paper's
// CORAL front-end; here internal/datalog) via the translation τ plus the
// Figure 12 inference-engine axioms. Theorem 6.1 (the two semantics agree)
// and Proposition 6.1 (Datalog is the special case with empty security
// components) are verified by this package's test and benchmark harnesses.
package multilog

import (
	"fmt"
	"strings"

	"repro/internal/datalog"
	"repro/internal/term"
)

// Mode names a belief mode (the paper's μ = {fir, opt, cau} plus
// user-defined modes registered with an Engine).
type Mode string

const (
	ModeFir Mode = "fir"
	ModeOpt Mode = "opt"
	ModeCau Mode = "cau"
)

// MAtom is an MLS atom s[p(k : a -c-> v)]: predicate p holds attribute a of
// the entity keyed k with value v classified c, asserted at security level
// s. Level, Key, Class and Value are terms (possibly variables); Attr is an
// attribute name from the finite set A.
type MAtom struct {
	Level term.Term
	Pred  string
	Key   term.Term
	Attr  string
	Class term.Term
	Value term.Term
}

// Apply applies a substitution to every term of the atom.
func (m MAtom) Apply(s term.Subst) MAtom {
	m.Level = s.Apply(m.Level)
	m.Key = s.Apply(m.Key)
	m.Class = s.Apply(m.Class)
	m.Value = s.Apply(m.Value)
	return m
}

// IsGround reports whether the atom contains no variables.
func (m MAtom) IsGround() bool {
	return m.Level.IsGround() && m.Key.IsGround() && m.Class.IsGround() && m.Value.IsGround()
}

// Equal reports structural equality.
func (m MAtom) Equal(n MAtom) bool {
	return m.Pred == n.Pred && m.Attr == n.Attr && m.Level.Equal(n.Level) &&
		m.Key.Equal(n.Key) && m.Class.Equal(n.Class) && m.Value.Equal(n.Value)
}

// String renders the atom in MultiLog surface syntax.
func (m MAtom) String() string { return string(m.Append(nil)) }

// Append appends the atom's String rendering to dst and returns the
// extended slice.
func (m MAtom) Append(dst []byte) []byte {
	dst = append(m.Level.Append(dst), '[')
	dst = append(append(dst, m.Pred...), '(')
	dst = append(m.Key.Append(dst), ": "...)
	dst = append(append(dst, m.Attr...), " -"...)
	dst = append(m.Class.Append(dst), "-> "...)
	return append(m.Value.Append(dst), ")]"...)
}

// Vars appends the variable names of the atom to dst.
func (m MAtom) Vars(dst []string) []string {
	dst = m.Level.Vars(dst)
	dst = m.Key.Vars(dst)
	dst = m.Class.Vars(dst)
	return m.Value.Vars(dst)
}

// Field is one attribute of an m-molecule.
type Field struct {
	Attr  string
	Class term.Term
	Value term.Term
}

// Molecule is an m-molecule s[p(k : a1 -c1-> v1; ...; an -cn-> vn)], the
// syntactic sugar for the conjunction of its atomic components (§5.1 fn 8).
type Molecule struct {
	Level  term.Term
	Pred   string
	Key    term.Term
	Fields []Field
	Pos    datalog.Position // source position of the molecule's first token
}

// Atoms expands the molecule into its atomic conjuncts.
func (mol Molecule) Atoms() []MAtom {
	out := make([]MAtom, len(mol.Fields))
	for i, f := range mol.Fields {
		out[i] = MAtom{Level: mol.Level, Pred: mol.Pred, Key: mol.Key, Attr: f.Attr, Class: f.Class, Value: f.Value}
	}
	return out
}

// String renders the molecule in surface syntax.
func (mol Molecule) String() string {
	parts := make([]string, len(mol.Fields))
	for i, f := range mol.Fields {
		parts[i] = fmt.Sprintf("%s -%s-> %s", f.Attr, f.Class, f.Value)
	}
	return fmt.Sprintf("%s[%s(%s: %s)]", mol.Level, mol.Pred, mol.Key, strings.Join(parts, "; "))
}

// GoalKind discriminates the atom kinds of L.
type GoalKind int

const (
	GoalM GoalKind = iota // m-atom
	GoalB                 // b-atom: m-atom << mode
	GoalP                 // classical p-atom (including built-ins)
	GoalL                 // level(s)
	GoalH                 // order(l, h)
)

// Goal is one atom of any kind. Exactly the fields for its kind are set:
// M (and Mode for b-atoms), or P (p-, l- and h-atoms are classical atoms
// over the distinguished predicates level/1 and order/2). Pos is the goal's
// source position when it was parsed (zero for programmatic goals).
type Goal struct {
	Kind GoalKind
	M    MAtom
	Mode Mode
	P    datalog.Atom
	Pos  datalog.Position
}

// MGoal wraps an m-atom.
func MGoal(m MAtom) Goal { return Goal{Kind: GoalM, M: m} }

// BGoal wraps a b-atom.
func BGoal(m MAtom, mode Mode) Goal { return Goal{Kind: GoalB, M: m, Mode: mode} }

// PGoal wraps a classical atom.
func PGoal(a datalog.Atom) Goal {
	switch a.Pred {
	case "level":
		return Goal{Kind: GoalL, P: a}
	case "order":
		return Goal{Kind: GoalH, P: a}
	}
	return Goal{Kind: GoalP, P: a}
}

// Apply applies a substitution to the goal.
func (g Goal) Apply(s term.Subst) Goal {
	switch g.Kind {
	case GoalM, GoalB:
		g.M = g.M.Apply(s)
	default:
		g.P = g.P.Apply(s)
	}
	return g
}

// Vars appends the goal's variable names to dst.
func (g Goal) Vars(dst []string) []string {
	switch g.Kind {
	case GoalM, GoalB:
		return g.M.Vars(dst)
	default:
		return g.P.Vars(dst)
	}
}

// Equal reports structural equality, source positions aside: exactly the
// fields String renders are compared, so parsed goals are Equal iff they
// render alike.
func (g Goal) Equal(h Goal) bool {
	if g.Kind != h.Kind {
		return false
	}
	switch g.Kind {
	case GoalM:
		return g.M.Equal(h.M)
	case GoalB:
		return g.Mode == h.Mode && g.M.Equal(h.M)
	default:
		return g.P.Equal(h.P)
	}
}

// String renders the goal.
func (g Goal) String() string { return string(g.Append(nil)) }

// Append appends the goal's String rendering to dst and returns the
// extended slice.
func (g Goal) Append(dst []byte) []byte {
	switch g.Kind {
	case GoalM:
		return g.M.Append(dst)
	case GoalB:
		return append(append(g.M.Append(dst), " << "...), g.Mode...)
	default:
		return g.P.Append(dst)
	}
}

// Clause is a MultiLog definite clause: Head :- Body. Heads are m-atoms,
// m-molecules (expanded by the preprocessor), p-atoms, l-atoms or h-atoms;
// b-atoms may appear only in bodies (§5.1: "we do not allow b-atoms to
// appear in the consequent").
type Clause struct {
	Head Goal
	Body []Goal
}

// Pos returns the clause's source position (its head goal's position).
func (c Clause) Pos() datalog.Position { return c.Head.Pos }

// IsFact reports whether the clause has an empty body.
func (c Clause) IsFact() bool { return len(c.Body) == 0 }

// Equal reports structural equality, source positions aside (see Goal.Equal).
func (c Clause) Equal(d Clause) bool {
	if len(c.Body) != len(d.Body) || !c.Head.Equal(d.Head) {
		return false
	}
	for i := range c.Body {
		if !c.Body[i].Equal(d.Body[i]) {
			return false
		}
	}
	return true
}

// String renders the clause.
func (c Clause) String() string {
	if c.IsFact() {
		return c.Head.String() + "."
	}
	parts := make([]string, len(c.Body))
	for i, g := range c.Body {
		parts[i] = g.String()
	}
	return fmt.Sprintf("%s :- %s.", c.Head, strings.Join(parts, ", "))
}

// Query is a conjunctive query ?- B1, ..., Bm.
type Query []Goal

// String renders the query into one buffer: it is the server's cache key,
// built on every request.
func (q Query) String() string {
	var buf [128]byte
	dst := append(buf[:0], "?- "...)
	for i, g := range q {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = g.Append(dst)
	}
	return string(append(dst, '.'))
}
