package datalog

import (
	"fmt"
	"unicode"
)

// TokenKind classifies lexer tokens. A kind is the text syntax errors print
// for it; a punctuation or keyword kind is its source text in single quotes,
// which is also how the lexer finds it, so a front-end declares an extra
// token by declaring its kind.
type TokenKind string

const (
	TokEOF       TokenKind = "end of input"
	TokIdent     TokenKind = "identifier" // lower-case identifier or quoted atom: parent, 'two words'
	TokVar       TokenKind = "variable"   // upper-case or _-prefixed identifier: X, _G1
	TokNumber    TokenKind = "number"     // digit run, kept as an opaque constant: 42
	TokLParen    TokenKind = "'('"
	TokRParen    TokenKind = "')'"
	TokComma     TokenKind = "','"
	TokDot       TokenKind = "'.'"
	TokColonDash TokenKind = "':-'"
	TokQueryDash TokenKind = "'?-'"
	TokEq        TokenKind = "'='"
	TokNeq       TokenKind = "'!='"
	// TokNot is Datalog's one keyword. It is not a core token: Π is
	// positive, so in MultiLog "not" stays an ordinary identifier.
	TokNot TokenKind = "'not'"
)

// corePunct is the punctuation every front-end shares.
var corePunct = []TokenKind{TokLParen, TokRParen, TokComma, TokDot, TokColonDash, TokQueryDash, TokEq, TokNeq}

// text is the source text of a punctuation or keyword kind.
func (k TokenKind) text() string { return string(k[1 : len(k)-1]) }

// Token is one lexed token with the position of its first character.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Position
}

// lexer tokenizes Datalog-family source: identifiers, variables, numbers,
// quoted atoms, the core punctuation, and whatever extra tokens the
// front-end names (Parser.Init). Comments run from '%' or "//" to newline.
type lexer struct {
	lang  string
	src   []rune
	pos   int
	line  int
	col   int
	extra []TokenKind
}

func (lx *lexer) errorf(pos Position, format string, args ...any) error {
	return &SyntaxError{Lang: lx.lang, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekAt(n int) rune {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *lexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peekAt(0)
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '%' || r == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peekAt(0) != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// word consumes a run of identifier characters.
func (lx *lexer) word() string {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
		lx.advance()
	}
	return string(lx.src[start:lx.pos])
}

// hasPrefix reports whether the unread input starts with the ASCII string s.
func (lx *lexer) hasPrefix(s string) bool {
	for i := 0; i < len(s); i++ {
		if lx.peekAt(i) != rune(s[i]) {
			return false
		}
	}
	return true
}

// next returns the next token.
func (lx *lexer) next() (Token, error) {
	lx.skipSpaceAndComments()
	pos := Position{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	r := lx.src[lx.pos]
	switch {
	case r == '\'':
		lx.advance()
		start := lx.pos
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errorf(pos, "unterminated quoted atom")
			}
			if lx.advance() == '\'' {
				break
			}
		}
		return Token{TokIdent, string(lx.src[start : lx.pos-1]), pos}, nil
	case unicode.IsDigit(r):
		start := lx.pos
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.src[lx.pos]) {
			lx.advance()
		}
		return Token{TokNumber, string(lx.src[start:lx.pos]), pos}, nil
	case unicode.IsLower(r):
		s := lx.word()
		for _, k := range lx.extra {
			if k[1] == s[0] && k.text() == s {
				return Token{k, s, pos}, nil
			}
		}
		return Token{TokIdent, s, pos}, nil
	case unicode.IsUpper(r) || r == '_':
		return Token{TokVar, lx.word(), pos}, nil
	}
	// Punctuation: the longest kind the input starts with. A character that
	// only begins a longer token (':' in Datalog, '<' in MultiLog) gets a
	// hint naming it.
	var best, hint TokenKind
	for _, kinds := range [...][]TokenKind{corePunct, lx.extra} {
		for _, k := range kinds {
			switch {
			case rune(k[1]) != r: // k is 'text': k[1] is its first character
			case len(k) > 3 && !lx.hasPrefix(k.text()):
				hint = k
			case len(k) > len(best):
				best = k
			}
		}
	}
	if best != "" {
		t := best.text()
		lx.pos += len(t) // punctuation is ASCII and never a newline
		lx.col += len(t)
		return Token{best, t, pos}, nil
	}
	if hint != "" {
		return Token{}, lx.errorf(pos, "unexpected %q; did you mean %s?", r, hint)
	}
	return Token{}, lx.errorf(pos, "unexpected character %q", r)
}
