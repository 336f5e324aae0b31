// Package asm implements the simulator's two-pass assembler (paper §III-C):
// the first pass tokenizes the program text into language units and
// processes instructions and memory directives; memory allocation happens
// between the passes; the second pass fills in operand values that depend
// on label addresses, including arithmetic expressions such as `arr+64`.
package asm

import (
	"fmt"
	"strconv"
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

// lexer tokenizes assembly source one physical line at a time, so the
// parser holds one line's tokens, never the whole stream. Comments run
// from '#' or "//" to the end of the line; "/* */" blocks are also
// supported, and a newline inside one still ends a line so the parser can
// recover per line. Its diagnostics collect in errs.
type lexer struct {
	src       string
	i         int
	line, col int  // 1-based position of src[i]
	inComment bool // inside a "/* */" block
	errs      ErrorList
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// lineText returns the text of the line at the lexer's position, without
// its newline, and false inside a block comment, where the line's tokens
// depend on more than its own text.
func (lx *lexer) lineText() (string, bool) {
	if lx.inComment {
		return "", false
	}
	rest := lx.src[lx.i:]
	if n := strings.IndexByte(rest, '\n'); n >= 0 {
		return rest[:n], true
	}
	return rest, true
}

// skipLine moves past the line lineText returned, which the caller has
// handled without its tokens.
func (lx *lexer) skipLine(text string) {
	lx.i = min(lx.i+len(text)+1, len(lx.src))
	lx.line++
	lx.col = 1
}

// next overwrites toks with the tokens of the next line, ending with its
// TokNewline; it returns no tokens once the source is exhausted.
func (lx *lexer) next(toks []Token) []Token {
	toks = toks[:0]
	src, i, line, col := lx.src, lx.i, lx.line, lx.col
	emit := func(kind TokKind, text string, c int) {
		if len(toks) == cap(toks) {
			// Double, where append would grow a long line by a quarter
			// at a time and allocate five times its final size.
			toks = append(make([]Token, 0, 2*cap(toks)+16), toks...)
		}
		toks = append(toks, Token{Kind: kind, Text: text, Line: line, Col: c})
	}
	// newline ends the line at src[i] == '\n'.
	newline := func() []Token {
		emit(TokNewline, "\n", col)
		lx.i, lx.line, lx.col = i+1, line+1, 1
		return toks
	}
	for i < len(src) || lx.inComment {
		if lx.inComment {
			for i < len(src) && !(src[i] == '*' && i+1 < len(src) && src[i+1] == '/') {
				if src[i] == '\n' {
					return newline()
				}
				i++
				col++
			}
			lx.inComment = false
			if i >= len(src) {
				lx.errs = append(lx.errs, &Error{Line: line, Col: col, Msg: "unterminated block comment"})
				break
			}
			i += 2
			col += 2
			continue
		}
		c := src[i]
		switch {
		case c == '\n':
			return newline()
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
			lx.inComment = true
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
				lx.errs = append(lx.errs, &Error{Line: line, Col: startCol,
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
			// Character literal: 'a' or '\n'. It never crosses a newline:
			// one there leaves it unterminated on its own line.
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
			} else if i < len(src) && src[i] != '\n' {
				val = src[i]
				i++
				col++
			}
			if i < len(src) && src[i] == '\'' {
				i++
				col++
			} else {
				lx.errs = append(lx.errs, &Error{Line: line, Col: startCol, Msg: "unterminated character literal"})
			}
			emit(TokNumber, strconv.Itoa(int(val)), startCol)
		default:
			lx.errs = append(lx.errs, &Error{Line: line, Col: col,
				Msg: fmt.Sprintf("unexpected character %q", string(c))})
			i++
			col++
		}
	}
	lx.i, lx.line, lx.col = i, line, col
	if len(toks) > 0 {
		emit(TokNewline, "\n", col)
	}
	return toks
}

// unescape decodes one backslash escape at the start of s, returning the
// decoded text and the number of input bytes consumed. A backslash at the
// end of a line escapes nothing: the newline is left to end the line.
func unescape(s string) (string, int) {
	if len(s) < 2 || s[1] == '\n' {
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
