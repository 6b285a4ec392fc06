package datalog

import "repro/internal/term"

// Parse parses Datalog source into a Program. Syntax:
//
//	parent(adam, abel).              % a fact
//	anc(X, Y) :- parent(X, Y).       % a rule
//	anc(X, Z) :- parent(X, Y), anc(Y, Z).
//	root(X) :- node(X), not haspar(X).
//	diff(X, Y) :- node(X), node(Y), X != Y.
//	?- anc(adam, X).                 % a query
//
// Identifiers starting lower-case (or quoted with single quotes, or numeric)
// are constants; upper-case or '_' start variables; "null" is the
// distinguished ⊥. Comments run from '%' or '//' to end of line.
func Parse(src string) (*Program, error) {
	var p Parser
	if err := p.Init("datalog", src, TokNot); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.Tok.Kind != TokEOF {
		if p.Tok.Kind == TokQueryDash {
			if err := p.Bump(); err != nil {
				return nil, err
			}
			goal, err := p.Atom()
			if err != nil {
				return nil, err
			}
			if err := p.Expect(TokDot); err != nil {
				return nil, err
			}
			prog.AddQuery(goal)
			continue
		}
		c, err := p.clause()
		if err != nil {
			return nil, err
		}
		prog.Add(c)
	}
	return prog, nil
}

// ParseClause parses a single clause (fact or rule) terminated by '.'.
func ParseClause(src string) (Clause, error) {
	var p Parser
	if err := p.Init("datalog", src, TokNot); err != nil {
		return Clause{}, err
	}
	c, err := p.clause()
	if err != nil {
		return Clause{}, err
	}
	if p.Tok.Kind != TokEOF {
		return Clause{}, p.Errf("trailing input after clause")
	}
	return c, nil
}

// ParseAtom parses a single atom with no trailing '.'.
func ParseAtom(src string) (Atom, error) {
	var p Parser
	if err := p.Init("datalog", src, TokNot); err != nil {
		return Atom{}, err
	}
	a, err := p.Atom()
	if err != nil {
		return Atom{}, err
	}
	if p.Tok.Kind != TokEOF {
		return Atom{}, p.Errf("trailing input after atom")
	}
	return a, nil
}

// Parser is the recursive-descent core the Datalog-family front-ends share:
// the lexer, one token of lookahead, and the term, infix built-in and p-atom
// grammar. The Datalog parser adds clauses and negation on top; the MultiLog
// parser embeds it and adds m-atoms, molecules and belief modes.
type Parser struct {
	lx  lexer
	Tok Token // the current token
}

// Init positions p on the first token of src; syntax errors carry lang.
// Each extra kind extends the core tokens: a kind whose text is a word is a
// keyword, recognised from an unquoted identifier; any other is punctuation.
func (p *Parser) Init(lang, src string, extra ...TokenKind) error {
	p.lx = lexer{lang: lang, src: []rune(src), line: 1, col: 1, extra: extra}
	return p.Bump()
}

// Bump advances to the next token.
func (p *Parser) Bump() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.Tok = t
	return nil
}

// Errf returns a syntax error at the current token.
func (p *Parser) Errf(format string, args ...any) error {
	return p.lx.errorf(p.Tok.Pos, format, args...)
}

// Expect consumes a token of kind k or fails.
func (p *Parser) Expect(k TokenKind) error {
	if p.Tok.Kind != k {
		return p.Errf("expected %s, found %s %q", k, p.Tok.Kind, p.Tok.Text)
	}
	return p.Bump()
}

func (p *Parser) clause() (Clause, error) {
	head, err := p.Atom()
	if err != nil {
		return Clause{}, err
	}
	if head.IsBuiltin() {
		return Clause{}, p.Errf("a built-in cannot be a clause head")
	}
	c := Clause{Head: head}
	if p.Tok.Kind == TokColonDash {
		if err := p.Bump(); err != nil {
			return Clause{}, err
		}
		for {
			lit, err := p.literal()
			if err != nil {
				return Clause{}, err
			}
			c.Body = append(c.Body, lit)
			if p.Tok.Kind != TokComma {
				break
			}
			if err := p.Bump(); err != nil {
				return Clause{}, err
			}
		}
	}
	if err := p.Expect(TokDot); err != nil {
		return Clause{}, err
	}
	return c, nil
}

func (p *Parser) literal() (Literal, error) {
	negated := false
	if p.Tok.Kind == TokNot {
		negated = true
		if err := p.Bump(); err != nil {
			return Literal{}, err
		}
	}
	a, err := p.Atom()
	if err != nil {
		return Literal{}, err
	}
	if negated && a.IsBuiltin() {
		return Literal{}, p.Errf("negating a built-in is not supported; use the dual operator")
	}
	return Literal{Atom: a, Negated: negated}, nil
}

// Atom parses a p-atom — p(t1,...,tn), a propositional atom p, or the infix
// built-ins t1 = t2 and t1 != t2 — recording the source position of its
// first token.
func (p *Parser) Atom() (Atom, error) {
	pos := p.Tok.Pos
	var a Atom
	var err error
	switch p.Tok.Kind {
	case TokVar, TokNumber:
		// Only an infix built-in starts with a variable or a number.
		var left term.Term
		if left, err = p.Term(); err == nil {
			a, err = p.InfixRest(left)
		}
	case TokIdent:
		name := p.Tok.Text
		if err = p.Bump(); err == nil {
			a, err = p.AtomRest(name)
		}
	default:
		err = p.Errf("expected atom, found %s %q", p.Tok.Kind, p.Tok.Text)
	}
	if err != nil {
		return Atom{}, err
	}
	a.Pos = pos
	return a, nil
}

// AtomRest parses the remainder of a p-atom whose leading identifier name
// has been consumed. The caller records the position.
func (p *Parser) AtomRest(name string) (Atom, error) {
	if p.Tok.Kind != TokLParen {
		// Either a propositional atom or the left side of an infix built-in.
		if p.Tok.Kind == TokEq || p.Tok.Kind == TokNeq {
			return p.InfixRest(constOrNull(name))
		}
		return Atom{Pred: name}, nil
	}
	if err := p.Bump(); err != nil { // consume '('
		return Atom{}, err
	}
	if p.Tok.Kind == TokRParen {
		// p() — explicit empty argument list, as Program.String prints
		// propositional atoms derived from 0-ary heads.
		return Atom{Pred: name}, p.Bump()
	}
	args, err := p.args()
	if err != nil {
		return Atom{}, err
	}
	// f(x) = Y is also legal: compound on the left of infix.
	if p.Tok.Kind == TokEq || p.Tok.Kind == TokNeq {
		return p.InfixRest(term.Comp(name, args...))
	}
	return Atom{Pred: name, Args: args}, nil
}

// InfixRest parses "= t" or "!= t" after the left operand of a built-in.
func (p *Parser) InfixRest(left term.Term) (Atom, error) {
	var pred string
	switch p.Tok.Kind {
	case TokEq:
		pred = BuiltinEq
	case TokNeq:
		pred = BuiltinNeq
	default:
		return Atom{}, p.Errf("expected '=' or '!=' after term, found %s", p.Tok.Kind)
	}
	if err := p.Bump(); err != nil {
		return Atom{}, err
	}
	right, err := p.Term()
	if err != nil {
		return Atom{}, err
	}
	return Atom{Pred: pred, Args: []term.Term{left, right}}, nil
}

// args parses "t1, ..., tn )" after an opening parenthesis.
func (p *Parser) args() ([]term.Term, error) {
	var args []term.Term
	for {
		t, err := p.Term()
		if err != nil {
			return nil, err
		}
		args = append(args, t)
		if p.Tok.Kind != TokComma {
			return args, p.Expect(TokRParen)
		}
		if err := p.Bump(); err != nil {
			return nil, err
		}
	}
}

// SimpleTerm parses a term with no arguments: a variable, a number or a
// bare constant ("null" is the distinguished ⊥).
func (p *Parser) SimpleTerm() (term.Term, error) {
	var t term.Term
	switch p.Tok.Kind {
	case TokVar:
		t = term.Var(p.Tok.Text)
	case TokNumber:
		t = term.Const(p.Tok.Text)
	case TokIdent:
		t = constOrNull(p.Tok.Text)
	default:
		return term.Term{}, p.Errf("expected term, found %s %q", p.Tok.Kind, p.Tok.Text)
	}
	return t, p.Bump()
}

// Term parses a full term, including compounds f(t1, ..., tn).
func (p *Parser) Term() (term.Term, error) {
	functor, name := p.Tok.Kind == TokIdent, p.Tok.Text
	t, err := p.SimpleTerm()
	if err != nil || !functor || p.Tok.Kind != TokLParen {
		return t, err
	}
	if err := p.Bump(); err != nil {
		return term.Term{}, err
	}
	args, err := p.args()
	if err != nil {
		return term.Term{}, err
	}
	return term.Comp(name, args...), nil
}

func constOrNull(name string) term.Term {
	if name == "null" {
		return term.Null()
	}
	return term.Const(name)
}
