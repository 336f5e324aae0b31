// Package asm implements the simulator's two-pass assembler (paper §III-C):
// the first pass tokenizes the program text into language units and
// processes instructions and memory directives; memory allocation happens
// between the passes; the second pass fills in operand values that depend
// on label addresses, including arithmetic expressions such as `arr+64`.
package asm

import (
	"fmt"
	"strings"
)

// TokKind classifies one language unit.
type TokKind uint8

// Token kinds.
const (
	TokIdent  TokKind = iota // mnemonic, label or symbol name
	TokDir                   // directive (leading '.')
	TokNumber                // integer or float literal
	TokString                // quoted string (for .ascii and friends)
	TokComma
	TokColon
	TokLParen
	TokRParen
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent // %hi / %lo relocation operators
	TokNewline
)

// Token is one language unit with its source position.
type Token struct {
	Kind TokKind
	Text string
	Line int // 1-based
	Col  int // 1-based
}

// Error is a source-located assembler diagnostic, used for the editor's
// error highlighting (paper Fig. 7).
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ErrorList collects all diagnostics from an assembly run so the editor
// can mark every offending line, not just the first.
type ErrorList []*Error

// Error implements the error interface.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d errors:", len(l))
	for _, e := range l {
		sb.WriteString("\n  ")
		sb.WriteString(e.Error())
	}
	return sb.String()
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Lex tokenizes assembly source. Comments run from '#' or "//" to the end
// of the line; "/* */" blocks are also supported. Every physical line ends
// with a TokNewline token so the parser can recover per line.
func Lex(src string) ([]Token, ErrorList) {
	toks := make([]Token, 0, len(src)/3) // assembly runs about three source bytes per token
	var errs ErrorList
	line, col := 1, 1
	i := 0
	emit := func(kind TokKind, text string, c int) {
		toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: c})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			emit(TokNewline, "\n", col)
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			col += 2
			for i < len(src) && !(src[i] == '*' && i+1 < len(src) && src[i+1] == '/') {
				if src[i] == '\n' {
					emit(TokNewline, "\n", col)
					line++
					col = 0
				}
				i++
				col++
			}
			if i >= len(src) {
				errs = append(errs, &Error{Line: line, Col: col, Msg: "unterminated block comment"})
			} else {
				i += 2
				col += 2
			}
		case c == '"':
			start, startCol := i, col
			i++
			col++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\\' && i+1 < len(src) {
					esc, n := unescape(src[i:])
					sb.WriteString(esc)
					i += n
					col += n
					continue
				}
				if src[i] == '"' {
					closed = true
					i++
					col++
					break
				}
				if src[i] == '\n' {
					break
				}
				sb.WriteByte(src[i])
				i++
				col++
			}
			if !closed {
				errs = append(errs, &Error{Line: line, Col: startCol,
					Msg: fmt.Sprintf("unterminated string %q", src[start:min(i, start+12)])})
			}
			emit(TokString, sb.String(), startCol)
		case c == ',':
			emit(TokComma, ",", col)
			i++
			col++
		case c == ':':
			emit(TokColon, ":", col)
			i++
			col++
		case c == '(':
			emit(TokLParen, "(", col)
			i++
			col++
		case c == ')':
			emit(TokRParen, ")", col)
			i++
			col++
		case c == '+':
			emit(TokPlus, "+", col)
			i++
			col++
		case c == '-':
			emit(TokMinus, "-", col)
			i++
			col++
		case c == '*':
			emit(TokStar, "*", col)
			i++
			col++
		case c == '/':
			emit(TokSlash, "/", col)
			i++
			col++
		case c == '%':
			emit(TokPercent, "%", col)
			i++
			col++
		case isDigit(c):
			start, startCol := i, col
			for i < len(src) && isNumChar(src[i]) {
				i++
				col++
			}
			emit(TokNumber, src[start:i], startCol)
		case isIdentStart(c):
			start, startCol := i, col
			for i < len(src) && isIdentChar(src[i]) {
				i++
				col++
			}
			text := src[start:i]
			if text[0] == '.' {
				emit(TokDir, text, startCol)
			} else {
				emit(TokIdent, text, startCol)
			}
		case c == '\'':
			// Character literal: 'a' or '\n'.
			startCol := col
			i++
			col++
			var val byte
			if i < len(src) && src[i] == '\\' {
				esc, n := unescape(src[i:])
				if len(esc) > 0 {
					val = esc[0]
				}
				i += n
				col += n
			} else if i < len(src) {
				val = src[i]
				i++
				col++
			}
			if i < len(src) && src[i] == '\'' {
				i++
				col++
			} else {
				errs = append(errs, &Error{Line: line, Col: startCol, Msg: "unterminated character literal"})
			}
			emit(TokNumber, fmt.Sprintf("%d", val), startCol)
		default:
			errs = append(errs, &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("unexpected character %q", string(c))})
			i++
			col++
		}
	}
	if len(toks) == 0 || toks[len(toks)-1].Kind != TokNewline {
		emit(TokNewline, "\n", col)
	}
	return toks, errs
}

// unescape decodes one backslash escape at the start of s, returning the
// decoded text and the number of input bytes consumed.
func unescape(s string) (string, int) {
	if len(s) < 2 {
		return "\\", 1
	}
	switch s[1] {
	case 'n':
		return "\n", 2
	case 't':
		return "\t", 2
	case 'r':
		return "\r", 2
	case '0':
		return "\x00", 2
	case '\\':
		return "\\", 2
	case '"':
		return "\"", 2
	case '\'':
		return "'", 2
	default:
		return string(s[1]), 2
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNumChar(c byte) bool {
	return isDigit(c) || c == 'x' || c == 'X' || c == 'b' || c == 'B' ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '.'
}

func isIdentStart(c byte) bool {
	return c == '.' || c == '_' || c == '$' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
