package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// SymbolTable supplies label values to operand expressions. Code labels map
// to instruction indices, data labels to byte addresses (paper §III-B).
type SymbolTable map[string]int64

// operandExpr is an unresolved operand expression: a token slice evaluated
// against the symbol table in the second pass ("Expressions are evaluated
// by a simple evaluation program, which must have access to the label
// values", paper §III-C).
type operandExpr struct {
	toks []Token
	text string
}

func (o *operandExpr) String() string { return o.text }

// newOperandExpr keeps a copy of an operand's tokens for the second pass:
// the parser reuses the line buffer they come from.
func newOperandExpr(g []Token, text string) *operandExpr {
	return &operandExpr{toks: append([]Token(nil), g...), text: text}
}

// evalOperand evaluates an operand expression such as `arr+64`, `-12`,
// `%lo(x)` or `(N+1)*4`. Supported: + - * / %, unary minus, parentheses,
// integer literals, character literals (already lexed to numbers), label
// names, and the %hi/%lo relocation operators.
func evalOperand(toks []Token, syms SymbolTable) (int64, error) {
	p := &exprParser{toks: toks, syms: syms}
	v, err := p.parseAddSub()
	if err != nil {
		return 0, err
	}
	if p.pos != len(p.toks) {
		t := p.toks[p.pos]
		return 0, fmt.Errorf("unexpected %q in expression", t.Text)
	}
	return v, nil
}

type exprParser struct {
	toks []Token
	pos  int
	syms SymbolTable
	// depth counts the parseUnary calls in progress, each a level of
	// parentheses, sign or %hi/%lo nesting.
	depth int
}

// maxOperandNesting bounds that depth: the evaluator recurses per level,
// and a request body of nothing but '(' or '-' would otherwise grow the
// stack past Go's limit — a fatal error, not a panic. Real operands nest
// a handful of levels.
const maxOperandNesting = 1000

func (p *exprParser) peek() (Token, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return Token{}, false
}

func (p *exprParser) parseAddSub() (int64, error) {
	v, err := p.parseMulDiv()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := p.peek()
		if !ok || (t.Kind != TokPlus && t.Kind != TokMinus) {
			return v, nil
		}
		p.pos++
		rhs, err := p.parseMulDiv()
		if err != nil {
			return 0, err
		}
		if t.Kind == TokPlus {
			v += rhs
		} else {
			v -= rhs
		}
	}
}

func (p *exprParser) parseMulDiv() (int64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t, ok := p.peek()
		if !ok || (t.Kind != TokStar && t.Kind != TokSlash) {
			return v, nil
		}
		p.pos++
		rhs, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if t.Kind == TokStar {
			v *= rhs
		} else {
			if rhs == 0 {
				return 0, fmt.Errorf("division by zero in operand expression")
			}
			v /= rhs
		}
	}
}

func (p *exprParser) parseUnary() (int64, error) {
	t, ok := p.peek()
	if !ok {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxOperandNesting {
		return 0, fmt.Errorf("operand expression is nested too deeply (limit %d)", maxOperandNesting)
	}
	switch t.Kind {
	case TokMinus:
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	case TokPlus:
		p.pos++
		return p.parseUnary()
	case TokPercent:
		return p.parseReloc()
	case TokLParen:
		p.pos++
		v, err := p.parseAddSub()
		if err != nil {
			return 0, err
		}
		nt, ok := p.peek()
		if !ok || nt.Kind != TokRParen {
			return 0, fmt.Errorf("missing ')' in expression")
		}
		p.pos++
		return v, nil
	case TokNumber:
		p.pos++
		return parseIntLiteral(t.Text)
	case TokIdent, TokDir:
		// Dot-prefixed local labels (.L1) lex as directive tokens but
		// act as ordinary symbols in operand expressions.
		p.pos++
		v, ok := p.syms[t.Text]
		if !ok {
			return 0, fmt.Errorf("undefined symbol %q", t.Text)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("unexpected %q in expression", t.Text)
	}
}

// parseReloc handles GCC-style %hi(sym) / %lo(sym) operators. The pair is
// defined so that `lui rd, %hi(x)` followed by `addi rd, rd, %lo(x)`
// reconstructs x exactly, accounting for %lo's sign extension:
//
//	hi = (x + 0x800) >> 12,  lo = x - (hi << 12)
func (p *exprParser) parseReloc() (int64, error) {
	p.pos++ // consume '%'
	name, ok := p.peek()
	if !ok || name.Kind != TokIdent || (name.Text != "hi" && name.Text != "lo") {
		return 0, fmt.Errorf("expected hi or lo after %%")
	}
	p.pos++
	lp, ok := p.peek()
	if !ok || lp.Kind != TokLParen {
		return 0, fmt.Errorf("expected '(' after %%%s", name.Text)
	}
	p.pos++
	v, err := p.parseAddSub()
	if err != nil {
		return 0, err
	}
	rp, ok := p.peek()
	if !ok || rp.Kind != TokRParen {
		return 0, fmt.Errorf("missing ')' after %%%s", name.Text)
	}
	p.pos++
	hi := (v + 0x800) >> 12
	if name.Text == "hi" {
		return hi, nil
	}
	return v - (hi << 12), nil
}

// parseIntLiteral parses decimal, hex (0x), binary (0b) and octal (0o)
// integer literals.
func parseIntLiteral(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err == nil {
		return v, nil
	}
	// strconv rejects "0b..." on some bases spellings; normalize and retry.
	ls := strings.ToLower(s)
	if strings.HasPrefix(ls, "0b") {
		u, err2 := strconv.ParseUint(ls[2:], 2, 64)
		if err2 == nil {
			return int64(u), nil
		}
	}
	// Large unsigned hex constants (e.g. 0xFFFFFFFF).
	u, uerr := strconv.ParseUint(s, 0, 64)
	if uerr == nil {
		return int64(u), nil
	}
	return 0, fmt.Errorf("bad integer literal %q", s)
}

// parseFloatLiteral parses a floating-point literal for .float/.double.
func parseFloatLiteral(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}
