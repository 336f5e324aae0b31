package compiler

import "testing"

// FuzzCompileC: at every optimization level, C source either fails to
// compile or compiles to assembly that assembles and runs 2,000 cycles on
// the default architecture without panicking. A program may fault at run
// time; the compiler may not emit what the assembler rejects. The seeds run
// under go test; CI's fuzz-smoke job mutates them for 30 s.
func FuzzCompileC(f *testing.F) {
	for _, src := range []string{
		"int main() { return 42; }",
		"int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\nint main() { return fib(10); }",
		"int counter = 5;\nint table[4] = {1, 2, 3, 4};\nint main() { counter += table[2]; return counter; }",
		"int main() { int x = 10; int *p = &x; *p = 20; int **pp = &p; **pp += 2; return x; }",
		"int main() { char c = 200; unsigned u = 3000000000; return (c < 0) + (u > 5) + sizeof(c); }",
		"float f(float x) { return x * 2.5f; }\nint main() { return (int)f(4.0f) + (1.5f < 2.0f); }",
		"int main() { int s = 0; for (int i = 0; i < 8; i++) { if (i == 5) break; s += i; } do { s--; } while (s > 3); return s ? s : -1; }",
		"extern int ext[4];\nint main() { return ext[1] & 7 | 1 << 2 ^ 3; }",
		// A global and a function of one name, the clash this target
		// found: a C diagnostic, never assembly the assembler rejects.
		"int A; int A(){return 1;} int main(){return 0;}",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for opt := 0; opt <= 3; opt++ {
			res, err := Compile(src, opt)
			if err != nil {
				continue
			}
			sim, err := loadC(res.Assembly, "")
			if err != nil {
				t.Fatalf("-O%d: %v\n--- assembly ---\n%s", opt, err, res.Assembly)
			}
			sim.Run(2_000)
		}
	})
}
