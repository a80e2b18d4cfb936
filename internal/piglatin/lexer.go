// Package piglatin implements the front end of the dataflow system: a
// lexer, an AST, and a recursive-descent parser for the subset of Pig
// Latin that the PigMix workloads exercise — LOAD, STORE, FOREACH …
// GENERATE, FILTER, GROUP/COGROUP, JOIN, DISTINCT, UNION, ORDER, LIMIT,
// with arithmetic/boolean expressions, positional ($n) and named column
// references, and the COUNT/SUM/AVG/MIN/MAX builtins.
package piglatin

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString // 'single quoted'
	tokDollar // $3
	tokPunct  // ( ) , ; . * + - / % == != <= >= < > =
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a parse or lex error with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("piglatin: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance(2)
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.advance(1)
			}
			l.advance(2)
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == ':' && false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next scans the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	start := l.pos
	line, col := l.line, l.col
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.advance(1)
		}
		// Allow the Pig "a::b" qualified name as a single identifier.
		for l.pos+1 < len(l.src) && l.src[l.pos] == ':' && l.src[l.pos+1] == ':' {
			l.advance(2)
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.advance(1)
			}
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	case isDigit(c):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.advance(1)
		}
		// Exponent part.
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			save := l.pos
			l.advance(1)
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.advance(1)
			}
			if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.advance(1)
				}
			} else {
				l.pos = save
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], line: line, col: col}, nil
	case c == '\'':
		l.advance(1)
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.advance(1)
			}
			b.WriteByte(l.src[l.pos])
			l.advance(1)
		}
		if l.pos >= len(l.src) {
			return token{}, &Error{Line: line, Col: col, Msg: "unterminated string"}
		}
		l.advance(1)
		return token{kind: tokString, text: b.String(), line: line, col: col}, nil
	case c == '$':
		l.advance(1)
		ds := l.pos
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.advance(1)
		}
		if l.pos == ds {
			return token{}, &Error{Line: line, Col: col, Msg: "expected digits after $"}
		}
		return token{kind: tokDollar, text: l.src[ds:l.pos], line: line, col: col}, nil
	default:
		// Multi-char operators first.
		for _, op := range []string{"==", "!=", "<=", ">="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.advance(2)
				return token{kind: tokPunct, text: op, line: line, col: col}, nil
			}
		}
		switch c {
		case '(', ')', ',', ';', '.', '*', '+', '-', '/', '%', '<', '>', '=', '{', '}', ':':
			l.advance(1)
			return token{kind: tokPunct, text: string(c), line: line, col: col}, nil
		}
		return token{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
