package compiler

import (
	"fmt"
	"testing"
)

// TestUnsignedConstants: a constant expression over unsigned literals
// computes what C says, at every optimisation level, and what the same
// expression computes over unsigned variables. Every level used to agree
// on the wrong answer — the literal's u suffix was dropped, so the
// operands were ints at -O0 too — which an O0-vs-O3 comparison alone
// cannot see; the variable twin can.
func TestUnsignedConstants(t *testing.T) {
	cases := []struct {
		expr string // over A and B
		a, b string
		want int32
	}{
		{"(A / B) > 5u", "4000000000u", "2u", 1},
		{"(A >> B) == 250000000u", "4000000000u", "4", 1},
		{"A < B", "4000000000u", "5u", 0},
		{"(A % B) == 4u", "4000000004u", "1000u", 1},
		{"A <= B", "4000000000u", "5u", 0},
		{"A >= B", "4000000000u", "5u", 1},
		{"A > B", "5u", "4000000000u", 0},
		{"A / B", "4000000000u", "1000000000u", 4},
		{"(A >> B) > 0", "0x80000000u", "31", 1},
		// The usual arithmetic conversions make a mixed comparison unsigned.
		{"A < B", "-1", "5u", 0},
		{"A > B", "-1", "5u", 1},
		// Signed stays signed: a shift takes its signedness from the left operand.
		{"(A >> B) == -2", "-8", "2u", 1},
		{"A < B", "-1", "5", 1},
		{"(A / B) == -3", "-7", "2", 1},
		{"(A % B) == -1", "-7", "2", 1},
	}
	subst := func(expr, a, b string) string {
		out := ""
		for _, c := range expr {
			switch c {
			case 'A':
				out += a
			case 'B':
				out += b
			default:
				out += string(c)
			}
		}
		return out
	}
	typeOf := func(lit string) string {
		if lit[len(lit)-1] == 'u' {
			return "unsigned int"
		}
		return "int"
	}
	for _, c := range cases {
		constant := fmt.Sprintf("int main() { return %s; }", subst(c.expr, c.a, c.b))
		variable := fmt.Sprintf("int main() { %s a = %s; %s b = %s; return %s; }",
			typeOf(c.a), c.a, typeOf(c.b), c.b, subst(c.expr, "a", "b"))
		global := fmt.Sprintf("%s a = %s; %s b = %s; int main() { return %s; }",
			typeOf(c.a), c.a, typeOf(c.b), c.b, subst(c.expr, "a", "b"))
		for opt := 0; opt <= 3; opt++ {
			for form, src := range map[string]string{"constants": constant, "locals": variable, "globals": global} {
				if got := runC(t, src, opt); got != c.want {
					t.Errorf("-O%d, %s: %s = %d, want %d", opt, form, src, got, c.want)
				}
			}
		}
	}
}
