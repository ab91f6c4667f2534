// Package smtlib implements the SMT-LIB v2 surface syntax used to exchange
// problems with SMT solvers: an s-expression reader/printer and a decoder
// from a script to its Problem (declarations and the solver commands) over
// one uninterpreted sort. The paper's FOL -> SMT-LIB compiler is the query
// package's script writer, which writes each question's script and builds
// the Problem its text decodes to.
package smtlib

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// SExpr is an s-expression: either an atom or a list. No code modifies an
// expression once built, so scripts may share one: every compiled script
// points at the same keyword atoms and fixed commands.
type SExpr struct {
	// Atom is the token text for leaf expressions; empty for lists.
	Atom string
	// List holds child expressions; nil for atoms. A non-nil empty slice
	// is the empty list ().
	List []*SExpr
}

// A returns an atom expression.
func A(atom string) *SExpr { return &SExpr{Atom: atom} }

// IsAtom reports whether e is an atom.
func (e *SExpr) IsAtom() bool { return e.List == nil }

// Head returns the first atom of a list (the operator), or the atom itself.
func (e *SExpr) Head() string {
	if e.IsAtom() {
		return e.Atom
	}
	if len(e.List) > 0 && e.List[0].IsAtom() {
		return e.List[0].Atom
	}
	return ""
}

// String renders the expression in SMT-LIB concrete syntax.
func (e *SExpr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *SExpr) write(b *strings.Builder) {
	if e.IsAtom() {
		b.WriteString(quoteSymbol(e.Atom))
		return
	}
	b.WriteByte('(')
	for i, it := range e.List {
		if i > 0 {
			b.WriteByte(' ')
		}
		it.write(b)
	}
	b.WriteByte(')')
}

// Character classes of simple symbols, by a character's first byte: one
// table load per ASCII byte of a printed atom, and the unicode package
// only for runes past ASCII.
const (
	symbolChar = 1 << iota // may appear in a simple symbol
	digitChar              // a decimal digit, which cannot start one
	multiByte              // starts a rune past ASCII (see runeClass)
)

var byteClass = func() (t [256]uint8) {
	for _, b := range []byte("~!@$%^&*_-+=<>.?/") {
		t[b] = symbolChar
	}
	for b := 'a'; b <= 'z'; b++ {
		t[b], t[b-'a'+'A'] = symbolChar, symbolChar
	}
	for b := '0'; b <= '9'; b++ {
		t[b] = symbolChar | digitChar
	}
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = multiByte
	}
	return t
}()

// runeClass returns the class of the rune past ASCII that s starts with
// and its length in bytes; an invalid UTF-8 byte is one character of no
// class.
func runeClass(s string) (class uint8, size int) {
	r, size := utf8.DecodeRuneInString(s)
	switch {
	case unicode.IsDigit(r):
		return symbolChar | digitChar, size
	case unicode.IsLetter(r):
		return symbolChar, size
	}
	return 0, size
}

// simpleSymbol reports whether s is a valid unquoted SMT-LIB simple symbol:
// letters, digits and ~!@$%^&*_-+=<>.?/, not starting with a digit.
func simpleSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); {
		class, size := byteClass[s[i]], 1
		if class == multiByte {
			class, size = runeClass(s[i:])
		}
		if class&symbolChar == 0 || i == 0 && class&digitChar != 0 {
			return false
		}
		i += size
	}
	return true
}

// quoteSymbol renders a symbol, wrapping it in |...| when it is not a simple
// symbol (SMT-LIB quoted symbols may contain anything but | and \). String
// literals re-escape their interior quotes.
func quoteSymbol(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		body := s[1 : len(s)-1]
		return `"` + strings.ReplaceAll(body, `"`, `""`) + `"`
	}
	if simpleSymbol(s) || isReserved(s) || looksLikeLiteral(s) {
		return s
	}
	clean := strings.Map(func(r rune) rune {
		if r == '|' || r == '\\' {
			return '_'
		}
		return r
	}, s)
	return "|" + clean + "|"
}

func isReserved(s string) bool {
	switch s {
	case "assert", "check-sat", "declare-const", "declare-fun", "declare-sort",
		"define-fun", "exit", "get-model", "get-unsat-core", "pop", "push",
		"set-logic", "set-option", "set-info", "check-sat-assuming",
		"forall", "exists", "and", "or", "not", "=>", "=", "ite", "true",
		"false", "Bool", "let", "distinct":
		return true
	}
	return false
}

func looksLikeLiteral(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == ':' {
		return true
	}
	for i := 0; i < len(s); {
		class, size := byteClass[s[i]], 1
		if class == multiByte {
			class, size = runeClass(s[i:])
		}
		if class&digitChar == 0 && s[i] != '.' {
			return false
		}
		i += size
	}
	return true
}

// Parse reads all top-level s-expressions from src. Comments (; to end of
// line) are skipped. It returns an error with position information on
// malformed input.
func Parse(src string) ([]*SExpr, error) {
	p := &parser{src: src}
	var out []*SExpr
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return out, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// ParseOne reads exactly one s-expression from src.
func ParseOne(src string) (*SExpr, error) {
	es, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(es) != 1 {
		return nil, fmt.Errorf("smtlib: expected one expression, got %d", len(es))
	}
	return es[0], nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ';':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) parseExpr() (*SExpr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("smtlib: unexpected end of input at %d", p.pos)
	}
	switch c := p.src[p.pos]; c {
	case '(':
		p.pos++
		list := []*SExpr{}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("smtlib: unclosed list at %d", p.pos)
			}
			if p.src[p.pos] == ')' {
				p.pos++
				return &SExpr{List: list}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
		}
	case ')':
		return nil, fmt.Errorf("smtlib: unexpected ')' at %d", p.pos)
	case '|':
		end := strings.IndexByte(p.src[p.pos+1:], '|')
		if end < 0 {
			return nil, fmt.Errorf("smtlib: unterminated quoted symbol at %d", p.pos)
		}
		atom := p.src[p.pos+1 : p.pos+1+end]
		if strings.ContainsRune(atom, '\\') {
			return nil, fmt.Errorf("smtlib: backslash in quoted symbol at %d", p.pos)
		}
		p.pos += end + 2
		return A(atom), nil
	case '"':
		// String literal with "" escaping.
		i := p.pos + 1
		var b strings.Builder
		for i < len(p.src) {
			if p.src[i] == '"' {
				if i+1 < len(p.src) && p.src[i+1] == '"' {
					b.WriteByte('"')
					i += 2
					continue
				}
				lit := "\"" + b.String() + "\""
				p.pos = i + 1
				return A(lit), nil
			}
			b.WriteByte(p.src[i])
			i++
		}
		return nil, fmt.Errorf("smtlib: unterminated string at %d", p.pos)
	default:
		start := p.pos
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == '(' || c == ')' || c == ';' || c == '|' || c == '"' ||
				c == '\\' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			p.pos++
		}
		if p.pos == start {
			return nil, fmt.Errorf("smtlib: unexpected character %q at %d", p.src[p.pos], p.pos)
		}
		return A(p.src[start:p.pos]), nil
	}
}
