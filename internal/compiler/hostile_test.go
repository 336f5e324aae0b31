package compiler

import (
	"strings"
	"testing"
)

// deepSources are programs that nest n levels deep in each way the grammar
// allows, or chain n operators into a tree n deep. The parser follows the
// former frame by frame and every later pass walks either recursively: deep
// enough, each ended the process with "fatal error: stack overflow", which
// no recover catches.
func deepSources(n int) map[string]string {
	rep := strings.Repeat
	return map[string]string{
		"parentheses":   "int main(){ return " + rep("(", n) + "1" + rep(")", n) + "; }",
		"unary minus":   "int main(){ return " + rep("- ", n) + "1; }",
		"unary not":     "int main(){ return " + rep("!", n) + "1; }",
		"dereferences":  "int main(){ int *p; return " + rep("*", n) + "p; }",
		"casts":         "int main(){ return " + rep("(int)", n) + "1; }",
		"conditionals":  "int main(){ return " + rep("1?1:", n) + "1; }",
		"assignments":   "int main(){ int a; return " + rep("a=", n) + "1; }",
		"blocks":        "int main(){ " + rep("{", n) + rep("}", n) + " return 0; }",
		"if chain":      "int main(){ " + rep("if(1) ", n) + "return 1; return 0; }",
		"else-if chain": "int main(){ " + rep("if(0) return 1; else ", n) + "return 0; }",
		"while nest":    "int main(){ " + rep("while(0) ", n) + "; return 0; }",
		"initialiser":   "int a[1] = { " + rep("(", n) + "1" + rep(")", n) + " }; int main(){ return 0; }",
		"index chain":   "int main(){ int a[1]; return a" + rep("[0]", n) + "; }",
		"sum chain":     "int main(){ return 1" + rep("+1", n) + "; }",
		"comma chain":   "int main(){ return (1" + rep(",1", n) + "); }",
		"call nest":     "int f(int x){ return x; } int main(){ return " + rep("f(", n) + "1" + rep(")", n) + "; }",
		"sizeof nest":   "int main(){ return " + rep("sizeof ", n) + "1; }",
	}
}

// TestNestingDepthLimit: every kind of nesting past the bound comes back
// as one ordinary diagnostic. The first source is the reported process
// kill itself, 1 MB of parentheses; the others are 50,000 levels each.
func TestNestingDepthLimit(t *testing.T) {
	sources := deepSources(50_000)
	sources["parentheses, 1 MB"] = deepSources(500_000)["parentheses"]
	for name, src := range sources {
		res, err := Compile(src, 3)
		if err == nil {
			t.Errorf("%s: compiled (%d bytes of assembly)", name, len(res.Assembly))
			continue
		}
		if !strings.Contains(err.Error(), "nested too deeply") {
			t.Errorf("%s: error does not name the limit: %.200s", name, err)
		}
		if n := strings.Count(err.Error(), "\n"); n > 2 {
			t.Errorf("%s: one cause reported as %d lines of diagnostics", name, n+1)
		}
	}
}

// TestNestingBelowTheLimit: programs as deep as people and generators
// write them still compile, and compute what they computed.
func TestNestingBelowTheLimit(t *testing.T) {
	const n = 300
	rep := strings.Repeat
	checkAllOpts(t, "int main(){ return "+rep("(", n)+"7"+rep(")", n)+"; }", 7)
	checkAllOpts(t, "int main(){ return "+rep("- ", n)+"7; }", 7)
	checkAllOpts(t, "int main(){ return 1"+rep("+1", 3*n)+"; }", 3*n+1)
	checkAllOpts(t, "int main(){ int x = 5; "+rep("if (x) { ", n)+"x = 9;"+rep(" }", n)+" return x; }", 9)
	checkAllOpts(t, "int main(){ int x = 3; "+rep("if (x == 0) return 1; else ", n)+"return x; }", 3)
}
