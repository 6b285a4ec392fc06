package multilog

import (
	"fmt"

	"repro/internal/datalog"
	"repro/internal/term"
)

// Parse parses MultiLog source into a Database. Syntax (see also the paper's
// Figure 10 and Example 5.1):
//
//	level(u).  level(c).  level(s).          % l-atoms
//	order(u, c).  order(c, s).               % h-atoms
//	s[mission(avenger: starship -s-> avenger; objective -s-> shipping)].
//	c[p(k: a -c-> t)] :- q(j).               % m-clause with p-atom body
//	s[p(k: a -u-> v)] :- c[p(k: a -c-> t)] << cau.   % b-atom body
//	q(j).                                    % p-clause
//	?- c[p(k: a -R-> v)] << opt.             % query
//
// The arrow class may be a level constant, a variable, or omitted entirely
// (a -> v), which reads as a fresh don't-care variable (§7). Molecules in
// heads are split into one clause per field; molecules in bodies expand to
// conjunctions (§5.3's preprocessor). Clauses are routed to Λ, Σ or Π by
// their head kind.
func Parse(src string) (*Database, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	db := NewDatabase()
	for p.Tok.Kind != datalog.TokEOF {
		if p.Tok.Kind == datalog.TokQueryDash {
			if err := p.Bump(); err != nil {
				return nil, err
			}
			goals, err := p.body()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(datalog.TokDot); err != nil {
				return nil, err
			}
			db.Queries = append(db.Queries, goals)
			continue
		}
		if err := p.clause(db); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// ParseGoals parses a comma-separated conjunction of goals (a query body
// without the "?-" prefix or trailing dot).
func ParseGoals(src string) ([]Goal, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	goals, err := p.body()
	if err != nil {
		return nil, err
	}
	if p.Tok.Kind != datalog.TokEOF {
		return nil, p.Errf("trailing input after goals")
	}
	return goals, nil
}

// MultiLog's punctuation beyond the shared core (datalog.Parser.Init).
const (
	tLBracket  datalog.TokenKind = "'['"
	tRBracket  datalog.TokenKind = "']'"
	tColon     datalog.TokenKind = "':'"
	tSemi      datalog.TokenKind = "';'"
	tBelief    datalog.TokenKind = "'<<'"
	tDash      datalog.TokenKind = "'-'"
	tArrowHead datalog.TokenKind = "'->'"
)

// mlParser adds m-atoms, molecules and belief modes to the shared term and
// p-atom grammar of datalog.Parser.
type mlParser struct {
	datalog.Parser
	fresh int
}

var mlTokens = []datalog.TokenKind{tLBracket, tRBracket, tColon, tSemi, tBelief, tDash, tArrowHead}

func newParser(src string) (*mlParser, error) {
	p := &mlParser{}
	return p, p.Init("multilog", src, mlTokens...)
}

// clause parses one clause and routes it into the database.
func (p *mlParser) clause(db *Database) error {
	head, mol, err := p.headAtom()
	if err != nil {
		return err
	}
	var body []Goal
	if p.Tok.Kind == datalog.TokColonDash {
		if err := p.Bump(); err != nil {
			return err
		}
		body, err = p.body()
		if err != nil {
			return err
		}
	}
	if err := p.Expect(datalog.TokDot); err != nil {
		return err
	}
	// Molecule heads split into one clause per field (§5.3).
	if mol != nil {
		for _, m := range mol.Atoms() {
			hg := MGoal(m)
			hg.Pos = mol.Pos
			if err := db.AddClause(Clause{Head: hg, Body: body}); err != nil {
				return err
			}
		}
		return nil
	}
	return db.AddClause(Clause{Head: head, Body: body})
}

// headAtom parses a clause head: an m-atom/molecule or a classical atom.
// b-atoms are rejected in head position.
func (p *mlParser) headAtom() (Goal, *Molecule, error) {
	g, mol, err := p.goalAtom()
	if err != nil {
		return Goal{}, nil, err
	}
	if g.Kind == GoalB {
		return Goal{}, nil, p.Errf("b-atoms may not appear in clause heads")
	}
	if g.Kind == GoalP && g.P.IsBuiltin() {
		return Goal{}, nil, p.Errf("a built-in cannot be a clause head")
	}
	return g, mol, nil
}

func (p *mlParser) body() ([]Goal, error) {
	var out []Goal
	for {
		g, mol, err := p.goalAtom()
		if err != nil {
			return nil, err
		}
		if mol != nil {
			// Body molecules expand to the conjunction of their atoms,
			// preserving a belief mode if one follows.
			for _, m := range mol.Atoms() {
				gg := MGoal(m)
				if g.Kind == GoalB {
					gg = BGoal(m, g.Mode)
				}
				gg.Pos = g.Pos
				out = append(out, gg)
			}
		} else {
			out = append(out, g)
		}
		if p.Tok.Kind != datalog.TokComma {
			return out, nil
		}
		if err := p.Bump(); err != nil {
			return nil, err
		}
	}
}

// goalAtom parses one goal, recording the source position of its first
// token. When the goal was written as a molecule the returned *Molecule is
// non-nil and the Goal carries only Kind/Mode (plus the position).
func (p *mlParser) goalAtom() (Goal, *Molecule, error) {
	pos := p.Tok.Pos
	g, mol, err := p.goalAtomInner()
	if err != nil {
		return g, mol, err
	}
	g.Pos = pos
	if g.Kind == GoalP || g.Kind == GoalL || g.Kind == GoalH {
		g.P.Pos = pos
	}
	if mol != nil {
		mol.Pos = pos
	}
	return g, mol, nil
}

func (p *mlParser) goalAtomInner() (Goal, *Molecule, error) {
	// A level term followed by '[' starts an m-atom; anything else is a
	// classical atom or infix built-in of the shared grammar.
	var a datalog.Atom
	switch p.Tok.Kind {
	case datalog.TokVar, datalog.TokNumber:
		t, err := p.SimpleTerm()
		if err != nil {
			return Goal{}, nil, err
		}
		if p.Tok.Kind == tLBracket {
			return p.mRest(t)
		}
		if a, err = p.InfixRest(t); err != nil {
			return Goal{}, nil, err
		}
	case datalog.TokIdent:
		name := p.Tok.Text
		err := p.Bump()
		if err != nil {
			return Goal{}, nil, err
		}
		if p.Tok.Kind == tLBracket {
			return p.mRest(term.Const(name))
		}
		if a, err = p.AtomRest(name); err != nil {
			return Goal{}, nil, err
		}
	default:
		return Goal{}, nil, p.Errf("expected goal, found %s %q", p.Tok.Kind, p.Tok.Text)
	}
	return PGoal(a), nil, nil
}

// mRest parses the remainder of an m-atom or molecule after its level term:
// "[" pred "(" key ":" fields ")" "]" ("<<" mode)?
func (p *mlParser) mRest(level term.Term) (Goal, *Molecule, error) {
	if err := p.Expect(tLBracket); err != nil {
		return Goal{}, nil, err
	}
	if p.Tok.Kind != datalog.TokIdent {
		return Goal{}, nil, p.Errf("expected predicate name, found %s %q", p.Tok.Kind, p.Tok.Text)
	}
	pred := p.Tok.Text
	if err := p.Bump(); err != nil {
		return Goal{}, nil, err
	}
	if err := p.Expect(datalog.TokLParen); err != nil {
		return Goal{}, nil, err
	}
	key, err := p.Term()
	if err != nil {
		return Goal{}, nil, err
	}
	if err := p.Expect(tColon); err != nil {
		return Goal{}, nil, err
	}
	mol := &Molecule{Level: level, Pred: pred, Key: key}
	for {
		f, err := p.field()
		if err != nil {
			return Goal{}, nil, err
		}
		mol.Fields = append(mol.Fields, f)
		if p.Tok.Kind == tSemi {
			if err := p.Bump(); err != nil {
				return Goal{}, nil, err
			}
			continue
		}
		break
	}
	if err := p.Expect(datalog.TokRParen); err != nil {
		return Goal{}, nil, err
	}
	if err := p.Expect(tRBracket); err != nil {
		return Goal{}, nil, err
	}
	mode := Mode("")
	isB := false
	if p.Tok.Kind == tBelief {
		if err := p.Bump(); err != nil {
			return Goal{}, nil, err
		}
		if p.Tok.Kind != datalog.TokIdent {
			return Goal{}, nil, p.Errf("expected belief mode after '<<', found %s %q", p.Tok.Kind, p.Tok.Text)
		}
		mode = Mode(p.Tok.Text)
		isB = true
		if err := p.Bump(); err != nil {
			return Goal{}, nil, err
		}
	}
	if len(mol.Fields) == 1 {
		m := mol.Atoms()[0]
		if isB {
			return BGoal(m, mode), nil, nil
		}
		return MGoal(m), nil, nil
	}
	// Multi-field molecule: the caller expands it; the Goal carries the
	// mode flag.
	g := Goal{Kind: GoalM}
	if isB {
		g = Goal{Kind: GoalB, Mode: mode}
	}
	return g, mol, nil
}

// field parses "attr -class-> value" or the don't-care form "attr -> value"
// (§7: "inserting don't care variables in place of missing level
// information").
func (p *mlParser) field() (Field, error) {
	if p.Tok.Kind != datalog.TokIdent {
		return Field{}, p.Errf("expected attribute name, found %s %q", p.Tok.Kind, p.Tok.Text)
	}
	attr := p.Tok.Text
	if err := p.Bump(); err != nil {
		return Field{}, err
	}
	var class term.Term
	switch p.Tok.Kind {
	case tDash:
		if err := p.Bump(); err != nil {
			return Field{}, err
		}
		t, err := p.SimpleTerm()
		if err != nil {
			return Field{}, err
		}
		class = t
		if err := p.Expect(tArrowHead); err != nil {
			return Field{}, err
		}
	case tArrowHead: // "->" with no class: don't-care variable
		if err := p.Bump(); err != nil {
			return Field{}, err
		}
		p.fresh++
		class = term.Var(fmt.Sprintf("_C%d", p.fresh))
	default:
		return Field{}, p.Errf("expected '-class->' or '->' after attribute %s", attr)
	}
	value, err := p.Term()
	if err != nil {
		return Field{}, err
	}
	return Field{Attr: attr, Class: class, Value: value}, nil
}
