package asm

import (
	"strings"
	"testing"
)

// Error-path coverage with exact-message assertions. The messages are
// part of the editor contract — the server streams them as diagnostics
// and the CLI prints them verbatim — so the whole ErrorList text, with
// every line:col, is pinned here rather than matched loosely.

type errorCase struct {
	name, src, want string
}

func wantErrMsg(t *testing.T, src, want string) {
	t.Helper()
	err := parseErr(t, src)
	if err.Error() != want {
		t.Errorf("Assemble(%.40q) error = %q, want %q", src, err.Error(), want)
	}
}

var parserErrorCases = []errorCase{
	{"duplicate label", "foo:\nfoo:\n  ecall\n", `line 2:1: duplicate label "foo"`},
	{"unknown instruction", "frobnicate x1, x2\n", `line 1:1: unknown instruction "frobnicate"`},
	{"unknown register", "add x1, x2, x99\n", `line 1:13: unknown register "x99"`},
	{"non-numeric alignment", ".align zz\n", "line 1:1: .align expects a numeric power-of-two exponent"},
	{"bad alignment exponent", ".align 17\n", `line 1:1: bad alignment exponent "17"`},
	{"unsupported directive", ".bogus 1\n", `line 1:1: unsupported directive ".bogus"`},
	{"stray token", "add x1, x2, x3 extra\n", `line 1:1: add: operand "x3 extra" must be a register`},
}

var lexerErrorCases = []errorCase{
	{"unterminated block comment", "add x1, x1, x1\n/* never closed\n", "line 3:1: unterminated block comment"},
	{"unterminated string", ".ascii \"abc\n", `line 1:8: unterminated string "\"abc"`},
	{"unterminated character literal", "li x1, 'a\n", "line 1:8: unterminated character literal"},
	{"unexpected character", "add x1`, x1, x1\n", "line 1:7: unexpected character \"`\""},
	// Lexer diagnostics come first, then the parser's, each in source
	// order; a block comment's newlines still count lines.
	{"lexer errors before parser errors",
		"frob x1\n.ascii \"abc\n  add x1, x2, x99 /* a\n b */ ecall @\n",
		"4 errors:\n" +
			"  line 2:8: unterminated string \"\\\"abc\"\n" +
			"  line 4:13: unexpected character \"@\"\n" +
			"  line 1:1: unknown instruction \"frob\"\n" +
			"  line 3:15: unknown register \"x99\""},
}

var operandErrorCases = []errorCase{
	{"undefined symbol", "li x1, no_such_symbol\n", `line 1:0: undefined symbol "no_such_symbol"`},
	{"missing close paren", "li x1, (1+2\n", `line 1:0: missing ')' in expression`},
	{"division by zero", "li x1, 4/0\n", "line 1:0: division by zero in operand expression"},
	{"trailing operator", "li x1, 1+\n", "line 1:0: unexpected end of expression"},
	{"bad percent operator", "lui x1, %mid(foo)\n", "line 1:0: expected hi or lo after %"},
	// The evaluator recurses per level: without the bound, a few
	// megabytes of these end the process with a stack overflow.
	{"deep parentheses", "li x1, " + strings.Repeat("(", 2_000_000) + "1" + strings.Repeat(")", 2_000_000) + "\n", "line 1:0: operand expression is nested too deeply (limit 1000)"},
	{"deep signs", "li x1, " + strings.Repeat("-", 100_000) + "1\n", "line 1:0: operand expression is nested too deeply (limit 1000)"},
	{"deep relocations", "lui x1, " + strings.Repeat("%hi(", 100_000) + "1" + strings.Repeat(")", 100_000) + "\n", "line 1:0: operand expression is nested too deeply (limit 1000)"},
}

// dataErrorCases place data items that do not fit memory. The error is
// on the item's line like every other diagnostic; byte counts near the
// int range must not wrap the allocation cursor past the capacity check.
var dataErrorCases = []errorCase{
	{"data past capacity", ".data\nbuf: .zero 70000\n", `line 2:0: memory: out of memory allocating 70000 bytes for "buf" (cursor 1024, capacity 65536)`},
	{"one huge item", ".data\n.zero 9223372036854775807\n.word 1\n", `line 2:0: memory: out of memory allocating 9223372036854775807 bytes for "" (cursor 1024, capacity 65536)`},
	{"two huge items", ".data\n.zero 9223372036854775807\n.zero 9223372036854775807\n.word 5\n", `line 2:0: memory: out of memory allocating 9223372036854775807 bytes for "" (cursor 1024, capacity 65536)`},
}

// HostileSources returns the source of every diagnostic case in this
// file, as seeds for FuzzAssemble (an external test package).
func HostileSources() []string {
	var out []string
	for _, cases := range [][]errorCase{parserErrorCases, lexerErrorCases, operandErrorCases, dataErrorCases} {
		for _, c := range cases {
			out = append(out, c.src)
		}
	}
	return out
}

func TestParserErrorMessages(t *testing.T) {
	for _, c := range parserErrorCases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

func TestLexerErrorMessages(t *testing.T) {
	for _, c := range lexerErrorCases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

func TestOperandExpressionErrorMessages(t *testing.T) {
	for _, c := range operandErrorCases {
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

func TestDataErrorMessages(t *testing.T) {
	for _, c := range dataErrorCases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

// TestErrorListAggregates pins that multiple offending lines all appear
// in one ErrorList, which is what lets the editor mark every line.
func TestErrorListAggregates(t *testing.T) {
	wantErrMsg(t, "frobnicate x1\nblargh x2\n  ecall\n",
		"2 errors:\n"+
			"  line 1:1: unknown instruction \"frobnicate\"\n"+
			"  line 2:1: unknown instruction \"blargh\"")
}
