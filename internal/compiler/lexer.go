// Package compiler implements the simulator's C compiler: a from-scratch
// compiler for a practical C subset targeting RV32IM+F assembly, standing
// in for the paper's GCC cross-compilation interface (§II, §III-C). It
// provides the same workflow: C source in, RISC-V assembly out, with four
// optimization levels (-O0..-O3), diagnostics with line/column positions
// for editor error highlighting (paper Fig. 6), and a C-line to
// assembly-line mapping for the editor's linked highlighting (Fig. 5).
//
// Substitution note: the paper shells out to a GCC
// cross-compiler on the server. This package replaces that proprietary
// dependency with an equivalent in-process code path: POST C source →
// compile → assembly + diagnostics + line links.
package compiler

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TokKind classifies C tokens.
type TokKind uint8

// Token kinds.
const (
	TIdent TokKind = iota
	TKeyword
	TIntLit
	TFloatLit
	TCharLit
	TStringLit
	TPunct
	TEOF
)

// Token is one C token.
type Token struct {
	Kind TokKind
	Text string
	Int  int64
	Flt  float64
	// Unsigned marks an integer literal of type unsigned int: written
	// with a u suffix, or a hex or octal one above INT_MAX.
	Unsigned bool
	Line     int
	Col      int
}

// Diag is a compiler diagnostic with a source position.
type Diag struct {
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// Error implements the error interface.
func (d *Diag) Error() string { return fmt.Sprintf("%d:%d: %s", d.Line, d.Col, d.Msg) }

// DiagList collects diagnostics so the editor can mark every error.
type DiagList []*Diag

// Error implements the error interface.
func (l DiagList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	msgs := make([]string, len(l))
	for i, d := range l {
		msgs[i] = d.Error()
	}
	return strings.Join(msgs, "\n")
}

// Err returns nil for an empty list.
func (l DiagList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

var keywords = map[string]bool{
	"int": true, "char": true, "unsigned": true, "float": true,
	"double": true, "void": true, "long": true, "short": true,
	"if": true, "else": true, "while": true, "for": true, "do": true,
	"return": true, "break": true, "continue": true,
	"extern": true, "static": true, "const": true, "sizeof": true,
	"struct": true, "typedef": true, "switch": true, "case": true,
	"default": true, "goto": true, "enum": true, "union": true,
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
	errs DiagList
}

func (lx *lexer) errf(line, col int, format string, args ...any) {
	lx.errs = append(lx.errs, &Diag{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

// token returns the next C token, TEOF at the end of the source, after
// stripping // and /* */ comments and #-directives (the subset has no
// preprocessor; #include lines are ignored so realistic sources still
// compile). The parser pulls tokens one at a time, so no token array is
// ever built.
func (lx *lexer) token() Token {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.advance()
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
		case c == '#':
			// Preprocessor directive: skip the line.
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek(1) == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.src[lx.pos] == '*' && lx.peek(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errf(startLine, startCol, "unterminated block comment")
			}
		case isCDigit(c) || (c == '.' && isCDigit(lx.peek(1))):
			return lx.lexNumber()
		case isCIdentStart(c):
			return lx.lexIdent()
		case c == '\'':
			return lx.lexChar()
		case c == '"':
			return lx.lexString()
		default:
			return lx.lexPunct()
		}
	}
	return Token{Kind: TEOF, Line: lx.line, Col: lx.col}
}

func (lx *lexer) peek(n int) byte {
	if lx.pos+n < len(lx.src) {
		return lx.src[lx.pos+n]
	}
	return 0
}

func (lx *lexer) advance() {
	if lx.src[lx.pos] == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	lx.pos++
}

func (lx *lexer) lexNumber() Token {
	t := Token{Line: lx.line, Col: lx.col}
	start := lx.pos
	isFloat := false
	if lx.src[lx.pos] == '0' && (lx.peek(1) == 'x' || lx.peek(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && isHexDigit(lx.src[lx.pos]) {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && (isCDigit(lx.src[lx.pos]) || lx.src[lx.pos] == '.') {
			if lx.src[lx.pos] == '.' {
				isFloat = true
			}
			lx.advance()
		}
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
			isFloat = true
			lx.advance()
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.advance()
			}
			for lx.pos < len(lx.src) && isCDigit(lx.src[lx.pos]) {
				lx.advance()
			}
		}
	}
	text := lx.src[start:lx.pos]
	// Suffixes: f makes the literal a float, u makes it unsigned, l is
	// accepted and ignored (long is int in this subset).
	for lx.pos < len(lx.src) && strings.ContainsRune("fFuUlL", rune(lx.src[lx.pos])) {
		switch lx.src[lx.pos] {
		case 'f', 'F':
			isFloat = true
		case 'u', 'U':
			t.Unsigned = true
		}
		lx.advance()
	}
	t.Text = text
	if isFloat {
		t.Kind = TFloatLit
		fmt.Sscanf(text, "%g", &t.Flt)
	} else {
		t.Kind = TIntLit
		base, digits := 10, text
		switch {
		case strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X"):
			base, digits = 16, text[2:]
		case len(text) > 1 && text[0] == '0':
			base, digits = 8, text[1:]
		}
		// The subset's widest integer type is unsigned int, so a constant
		// it cannot hold is a diagnostic, never a truncation.
		v, err := strconv.ParseUint(digits, base, 32)
		switch {
		case err == nil:
		case digits == "":
			lx.errf(t.Line, t.Col, "hexadecimal constant %q has no digits", text)
		case errors.Is(err, strconv.ErrRange):
			lx.errf(t.Line, t.Col, "integer constant %q is too large for unsigned int", text)
		default:
			lx.errf(t.Line, t.Col, "invalid octal constant %q", text)
		}
		// C99 6.4.4.1: an unsuffixed hex or octal constant too large for
		// int is unsigned int; a decimal one stays signed.
		if base != 10 && v > math.MaxInt32 {
			t.Unsigned = true
		}
		t.Int = int64(v)
	}
	return t
}

func (lx *lexer) lexIdent() Token {
	t := Token{Line: lx.line, Col: lx.col}
	start := lx.pos
	for lx.pos < len(lx.src) && isCIdentChar(lx.src[lx.pos]) {
		lx.advance()
	}
	t.Text = lx.src[start:lx.pos]
	if keywords[t.Text] {
		t.Kind = TKeyword
	} else {
		t.Kind = TIdent
	}
	return t
}

func (lx *lexer) lexChar() Token {
	t := Token{Kind: TCharLit, Line: lx.line, Col: lx.col}
	lx.advance() // '
	var v int64
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '\\' {
		lx.advance()
		if lx.pos < len(lx.src) {
			v = int64(unescapeC(lx.src[lx.pos]))
			lx.advance()
		}
	} else if lx.pos < len(lx.src) {
		v = int64(lx.src[lx.pos])
		lx.advance()
	}
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '\'' {
		lx.advance()
	} else {
		lx.errf(t.Line, t.Col, "unterminated character literal")
	}
	t.Int = v
	t.Text = fmt.Sprintf("%d", v)
	return t
}

func (lx *lexer) lexString() Token {
	t := Token{Kind: TStringLit, Line: lx.line, Col: lx.col}
	lx.advance() // "
	var sb strings.Builder
	closed := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\\' {
			lx.advance()
			if lx.pos < len(lx.src) {
				sb.WriteByte(unescapeC(lx.src[lx.pos]))
				lx.advance()
			}
			continue
		}
		if c == '"' {
			lx.advance()
			closed = true
			break
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
		lx.advance()
	}
	if !closed {
		lx.errf(t.Line, t.Col, "unterminated string literal")
	}
	t.Text = sb.String()
	return t
}

func (lx *lexer) lexPunct() Token {
	t := Token{Kind: TPunct, Line: lx.line, Col: lx.col}
	if n := punctLen(lx.src[lx.pos:]); n > 0 {
		t.Text = lx.src[lx.pos : lx.pos+n]
		for range n {
			lx.advance()
		}
		return t
	}
	lx.errf(lx.line, lx.col, "unexpected character %q", string(lx.src[lx.pos]))
	t.Text = string(lx.src[lx.pos])
	lx.advance()
	return t
}

// punctLen returns the length of the longest punctuator s starts with, or
// 0 when it starts with none. The punctuators are the one-byte
// + - * / % = < > ! ~ & | ^ ( ) { } [ ] ; , ? : . and the compounds
// <<= >>= ... == != <= >= && || << >> += -= *= /= %= &= |= ^= ++ -- ->.
func punctLen(s string) int {
	var c1, c2 byte
	if len(s) > 1 {
		c1 = s[1]
	}
	if len(s) > 2 {
		c2 = s[2]
	}
	switch s[0] {
	case '<', '>':
		switch {
		case c1 == s[0] && c2 == '=':
			return 3
		case c1 == s[0] || c1 == '=':
			return 2
		}
		return 1
	case '.':
		if c1 == '.' && c2 == '.' {
			return 3
		}
		return 1
	case '&', '|', '+':
		if c1 == s[0] || c1 == '=' {
			return 2
		}
		return 1
	case '-':
		if c1 == '-' || c1 == '=' || c1 == '>' {
			return 2
		}
		return 1
	case '=', '!', '*', '/', '%', '^':
		if c1 == '=' {
			return 2
		}
		return 1
	case '~', '(', ')', '{', '}', '[', ']', ';', ',', '?', ':':
		return 1
	}
	return 0
}

func unescapeC(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	default:
		return c
	}
}

func isCDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool {
	return isCDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func isCIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isCIdentChar(c byte) bool { return isCIdentStart(c) || isCDigit(c) }
