package asm

import (
	"strings"
	"testing"
)

// Error-path coverage with exact-message assertions. The messages are
// part of the editor contract — the server streams them as diagnostics
// and the CLI prints them verbatim — so they are pinned here rather than
// matched loosely.

func wantErrMsg(t *testing.T, src, want string) {
	t.Helper()
	err := parseErr(t, src)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("Assemble(%q) error = %q, want it to contain %q", src, err.Error(), want)
	}
}

func TestParserErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"duplicate label", "foo:\nfoo:\n  ecall\n", `duplicate label "foo"`},
		{"unknown instruction", "frobnicate x1, x2\n", `unknown instruction "frobnicate"`},
		{"unknown register", "add x1, x2, x99\n", `unknown register "x99"`},
		{"non-numeric alignment", ".align zz\n", ".align expects a numeric power-of-two exponent"},
		{"bad alignment exponent", ".align 17\n", `bad alignment exponent "17"`},
		{"unsupported directive", ".bogus 1\n", `unsupported directive ".bogus"`},
		{"stray token", "add x1, x2, x3 extra\n", `add: operand "x3 extra" must be a register`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

func TestLexerErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unterminated block comment", "add x1, x1, x1\n/* never closed\n", "unterminated block comment"},
		{"unterminated string", ".ascii \"abc\n", "unterminated string"},
		{"unterminated character literal", "li x1, 'a\n", "unterminated character literal"},
		{"unexpected character", "add x1`, x1, x1\n", "unexpected character \"`\""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

func TestOperandExpressionErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined symbol", "li x1, no_such_symbol\n", `undefined symbol "no_such_symbol"`},
		{"missing close paren", "li x1, (1+2\n", `missing ')' in expression`},
		{"division by zero", "li x1, 4/0\n", "division by zero in operand expression"},
		{"trailing operator", "li x1, 1+\n", "unexpected end of expression"},
		{"bad percent operator", "lui x1, %mid(foo)\n", "expected hi or lo after %"},
		// The evaluator recurses per level: without the bound, a few
		// megabytes of these end the process with a stack overflow.
		{"deep parentheses", "li x1, " + strings.Repeat("(", 2_000_000) + "1" + strings.Repeat(")", 2_000_000) + "\n", "nested too deeply"},
		{"deep signs", "li x1, " + strings.Repeat("-", 100_000) + "1\n", "nested too deeply"},
		{"deep relocations", "lui x1, " + strings.Repeat("%hi(", 100_000) + "1" + strings.Repeat(")", 100_000) + "\n", "nested too deeply"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
	// Below the bound nothing changes.
	deep := "li x1, " + strings.Repeat("(", 500) + "- -7" + strings.Repeat(")", 500) + "\n"
	prog, err := Parse(deep, testSet, testRegs)
	if err != nil {
		t.Fatalf("500 levels of parentheses: %v", err)
	}
	if imm := prog.Instructions[0].Op("imm"); imm == nil || imm.Val != 7 {
		t.Errorf("500 levels of parentheses evaluate to %+v, want 7", imm)
	}
}

// TestErrorListAggregates pins that multiple offending lines all appear
// in one ErrorList, which is what lets the editor mark every line.
func TestErrorListAggregates(t *testing.T) {
	err := parseErr(t, "frobnicate x1\nblargh x2\n  ecall\n")
	msg := err.Error()
	if !strings.Contains(msg, `unknown instruction "frobnicate"`) ||
		!strings.Contains(msg, `unknown instruction "blargh"`) {
		t.Errorf("ErrorList should report both bad lines, got %q", msg)
	}
	if !strings.Contains(msg, "2 errors:") {
		t.Errorf("ErrorList header missing, got %q", msg)
	}
}
