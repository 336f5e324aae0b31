package asm

import (
	"fmt"
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
	// A character literal never swallows a newline, so later lines keep
	// their numbers.
	{"character literal before a newline", "li x1, '\n'\nli x2, 1\nfrob\n",
		"4 errors:\n" +
			"  line 1:8: unterminated character literal\n" +
			"  line 2:1: unterminated character literal\n" +
			"  line 2:1: expected instruction, directive or label, got \"0\"\n" +
			"  line 4:1: unknown instruction \"frob\""},
	{"escape before a newline", "li x1, '\\\n'\nli x2, 1\nfrob\n",
		"4 errors:\n" +
			"  line 1:8: unterminated character literal\n" +
			"  line 2:1: unterminated character literal\n" +
			"  line 2:1: expected instruction, directive or label, got \"0\"\n" +
			"  line 4:1: unknown instruction \"frob\""},
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

// repeatErrorCases repeat an erroneous line: Parse reuses only lines that
// parsed cleanly, so each copy is diagnosed at its own line and column —
// bare, label-prefixed and indented — and a clean repeat after them adds
// nothing.
var repeatErrorCases = []errorCase{
	{"repeated erroneous line",
		"add x1, x2, x99\nadd x1, x2, x99\nfoo: add x1, x2, x99\n  add x1, x2, x99\nadd x1, x2, x3\nadd x1, x2, x3\n",
		"4 errors:\n" +
			"  line 1:13: unknown register \"x99\"\n" +
			"  line 2:13: unknown register \"x99\"\n" +
			"  line 3:18: unknown register \"x99\"\n" +
			"  line 4:15: unknown register \"x99\""},
	// The lexer drops the stray byte and the instruction still assembles.
	{"repeated line with a lexer error", "addi x1, x1, 1 @\naddi x1, x1, 1 @\n",
		"2 errors:\n" +
			"  line 1:16: unexpected character \"@\"\n" +
			"  line 2:16: unexpected character \"@\""},
	{"repeated line after its error", "frob x1\nfrob x1\nfrob x1\n",
		"3 errors:\n" +
			"  line 1:1: unknown instruction \"frob\"\n" +
			"  line 2:1: unknown instruction \"frob\"\n" +
			"  line 3:1: unknown instruction \"frob\""},
	{"repeated undefined symbol", "li a0, nowhere\nli a0, nowhere\n",
		"2 errors:\n" +
			"  line 1:0: undefined symbol \"nowhere\"\n" +
			"  line 2:0: undefined symbol \"nowhere\""},
}

// repeatCases repeat lines where reusing the first parse could go wrong;
// want lists every instruction as line:text once loaded.
var repeatCases = []struct{ name, src, want string }{
	// jalr evaluates its offset when parsed, with the symbols of the
	// moment; li and addi defer to the second pass and see the last value.
	{"repeat across a redefinition",
		".equ N, 1\njalr ra, N(t0)\nli a0, N\naddi a0, a0, N\n.set N, 2\njalr ra, N(t0)\nli a0, N\naddi a0, a0, N\n",
		"2:jalr ra, t0, 1\n3:addi a0, x0, 2\n4:addi a0, a0, 2\n6:jalr ra, t0, 2\n7:addi a0, x0, 2\n8:addi a0, a0, 2\n"},
	// A label binds to the repeat it prefixes; a branch is relative to
	// each copy's own index.
	{"label-prefixed repeat",
		"addi a0, a0, 1\nloop: addi a0, a0, 1\naddi a0, a0, 1\nbnez a0, loop\nbnez a0, loop\n",
		"1:addi a0, a0, 1\n2:addi a0, a0, 1\n3:addi a0, a0, 1\n4:bne a0, x0, -2\n5:bne a0, x0, -3\n"},
	{"repeat in .data and .text",
		".data\nx: .word 5\naddi a0, a0, 1\n.word 5\n.text\naddi a0, a0, 1\n.word 5\nla a1, x\nla a1, x\n",
		"3:addi a0, a0, 1\n6:addi a0, a0, 1\n8:addi a1, x0, 1024\n9:addi a1, x0, 1024\n"},
	{"li of values of every size",
		"li a0, 1\nli a0, 0x12345678\nli a0, 1\nli a0, -2048\nli a0, 0x12345678\nli a0, -2048\n",
		"1:addi a0, x0, 1\n2:addi a0, x0, 305419896\n3:addi a0, x0, 1\n4:addi a0, x0, -2048\n5:addi a0, x0, 305419896\n6:addi a0, x0, -2048\n"},
}

// HostileSources returns the source of every diagnostic and repeat case
// in this file, as seeds for FuzzAssemble (an external test package).
func HostileSources() []string {
	var out []string
	for _, cases := range [][]errorCase{parserErrorCases, lexerErrorCases, operandErrorCases, dataErrorCases, repeatErrorCases} {
		for _, c := range cases {
			out = append(out, c.src)
		}
	}
	for _, c := range repeatCases {
		out = append(out, c.src)
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

func TestRepeatedLineErrorMessages(t *testing.T) {
	for _, c := range repeatErrorCases {
		t.Run(c.name, func(t *testing.T) { wantErrMsg(t, c.src, c.want) })
	}
}

func TestRepeatedLines(t *testing.T) {
	for _, c := range repeatCases {
		t.Run(c.name, func(t *testing.T) {
			prog, _ := assemble(t, c.src)
			var got strings.Builder
			for _, in := range prog.Instructions {
				fmt.Fprintf(&got, "%d:%s\n", in.Line, in)
			}
			if got.String() != c.want {
				t.Errorf("got\n%s\nwant\n%s", got.String(), c.want)
			}
		})
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
