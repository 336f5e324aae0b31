package compiler

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"riscvsim/internal/asm"
	"riscvsim/internal/config"
	"riscvsim/internal/core"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

var (
	testSet  = isa.RV32IMF()
	testRegs = isa.NewRegisterFile()
)

// runC compiles src at the given optimization level, assembles it, runs it
// on the default architecture and returns main's return value (a0).
func runC(t testing.TB, src string, opt int) int32 {
	t.Helper()
	sim := runCSim(t, src, opt)
	d, _ := testRegs.Lookup("a0")
	return sim.Registers().ArchValue(isa.RegInt, d.Index).Int()
}

func runCSim(t testing.TB, src string, opt int) *core.Simulation {
	t.Helper()
	res, err := Compile(src, opt)
	if err != nil {
		t.Fatalf("Compile(-O%d): %v", opt, err)
	}
	sim, err := loadC(res.Assembly, "main")
	if err != nil {
		t.Fatalf("-O%d: %v\n--- assembly ---\n%s", opt, err, res.Assembly)
	}
	sim.Run(3_000_000)
	if !sim.Halted() {
		t.Fatalf("-O%d: program did not halt\n--- assembly ---\n%s", opt, res.Assembly)
	}
	if exc := sim.Exception(); exc != nil {
		t.Fatalf("-O%d: runtime exception: %v\n--- assembly ---\n%s", opt, exc, res.Assembly)
	}
	return sim
}

// loadC assembles compiler output onto a machine of the default
// architecture, entered at the code label entry ("" is index 0, where the
// code generator puts main).
func loadC(assembly, entry string) (*core.Simulation, error) {
	cfg := config.Default()
	mem := memory.New(cfg.Memory)
	prog, err := asm.Assemble(assembly, testSet, testRegs, mem)
	if err != nil {
		return nil, fmt.Errorf("assembling compiler output: %w", err)
	}
	e, err := prog.EntryPoint(entry)
	if err != nil {
		return nil, err
	}
	return core.New(cfg, testSet, testRegs, prog, mem, e)
}

// checkAllOpts runs the program at -O0..-O3 and requires the same result.
func checkAllOpts(t *testing.T, src string, want int32) {
	t.Helper()
	for opt := 0; opt <= 3; opt++ {
		if got := runC(t, src, opt); got != want {
			t.Errorf("-O%d: result = %d, want %d", opt, got, want)
		}
	}
}

func TestReturnConstant(t *testing.T) {
	checkAllOpts(t, "int main() { return 42; }", 42)
}

func TestArithmetic(t *testing.T) {
	checkAllOpts(t, "int main() { return (3 + 4) * 5 - 100 / 10 % 7; }", 32)
}

func TestVariablesAndAssignment(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a = 10;
    int b = 4;
    int c;
    c = a - b;
    a += c;
    b *= 2;
    return a + b + c;   // 16 + 8 + 6
}`, 30)
}

func TestIfElse(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int x = 7;
    if (x > 10) return 1;
    else if (x > 5) return 2;
    else return 3;
}`, 2)
}

func TestWhileLoop(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int sum = 0;
    int i = 1;
    while (i <= 10) { sum += i; i++; }
    return sum;
}`, 55)
}

func TestForLoop(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 5; i++) sum += i * i;
    return sum;   // 0+1+4+9+16
}`, 30)
}

func TestDoWhileBreakContinue(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int sum = 0;
    int i = 0;
    do {
        i++;
        if (i == 3) continue;
        if (i > 6) break;
        sum += i;
    } while (i < 100);
    return sum;   // 1+2+4+5+6
}`, 18)
}

func TestFunctionsAndRecursion(t *testing.T) {
	checkAllOpts(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(10); }`, 55)
}

func TestMultipleArguments(t *testing.T) {
	checkAllOpts(t, `
int combine(int a, int b, int c, int d, int e, int f) {
    return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}
int main() { return combine(1, 2, 3, 4, 5, 6); }`, 91)
}

func TestLocalArrays(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a[5];
    for (int i = 0; i < 5; i++) a[i] = i * 10;
    int sum = 0;
    for (int i = 0; i < 5; i++) sum += a[i];
    return sum;
}`, 100)
}

func TestArrayInitializers(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a[4] = {5, 10, 15, 20};
    return a[0] + a[3];
}`, 25)
}

func TestGlobalsAndArrays(t *testing.T) {
	checkAllOpts(t, `
int counter = 5;
int table[4] = {1, 2, 3, 4};
int main() {
    counter += table[2];
    return counter;
}`, 8)
}

func TestPointers(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int x = 10;
    int *p = &x;
    *p = 20;
    int **pp = &p;
    **pp += 2;
    return x;
}`, 22)
}

func TestPointerArithmetic(t *testing.T) {
	checkAllOpts(t, `
int a[5] = {1, 2, 3, 4, 5};
int main() {
    int *p = a;
    p = p + 2;
    int d = p - a;       // 2
    return *p + *(p + 1) + d;   // 3 + 4 + 2
}`, 9)
}

func TestArrayAsParameter(t *testing.T) {
	checkAllOpts(t, `
int sum(int *v, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += v[i];
    return s;
}
int data[6] = {1, 2, 3, 4, 5, 6};
int main() { return sum(data, 6); }`, 21)
}

func TestCharType(t *testing.T) {
	checkAllOpts(t, `
int main() {
    char c = 'A';
    c = c + 1;
    char big = 200;      // wraps to signed char
    return c + (big < 0 ? 1 : 0);   // 'B' + 1
}`, 67)
}

func TestUnsignedArithmetic(t *testing.T) {
	checkAllOpts(t, `
int main() {
    unsigned a = 0;
    a = a - 1;           // 0xFFFFFFFF
    unsigned b = a / 2;  // 0x7FFFFFFF
    return b == 0x7FFFFFFF;
}`, 1)
}

func TestShortCircuit(t *testing.T) {
	checkAllOpts(t, `
int hits = 0;
int bump() { hits++; return 1; }
int main() {
    int a = 0 && bump();
    int b = 1 || bump();
    return hits * 10 + a + b;   // bump never called
}`, 1)
}

func TestTernary(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int x = 5;
    return x > 3 ? x * 2 : x - 1;
}`, 10)
}

func TestBitwiseOps(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a = 0xF0;
    int b = 0x3C;
    return ((a & b) | (a ^ b)) + (1 << 4) + (256 >> 4);   // 0xFC + 16 + 16
}`, 284)
}

func TestSizeof(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a[10];
    a[0] = 0;
    return sizeof(int) + sizeof(char) + sizeof(a) + sizeof(int*);
}`, 49)
}

func TestCasts(t *testing.T) {
	checkAllOpts(t, `
int main() {
    float f = 3.75f;
    int i = (int)f;          // 3
    float g = (float)7 / 2;  // 3.5
    int j = (int)(g * 2.0f); // 7
    return i + j;
}`, 10)
}

func TestFloatMath(t *testing.T) {
	checkAllOpts(t, `
float scale = 1.5f;
int main() {
    float sum = 0.0f;
    for (int i = 1; i <= 4; i++) {
        sum += (float)i * scale;
    }
    return (int)sum;    // 1.5+3+4.5+6 = 15
}`, 15)
}

func TestFloatComparison(t *testing.T) {
	checkAllOpts(t, `
int main() {
    float a = 0.5f;
    float b = 0.25f;
    int r = 0;
    if (a > b) r += 1;
    if (a != b) r += 2;
    if (b <= 0.25f) r += 4;
    return r;
}`, 7)
}

func TestExternArray(t *testing.T) {
	// The paper's extern workflow: storage reserved, contents filled via
	// the memory settings by label. Here we just verify it assembles,
	// allocates and reads back zeros.
	checkAllOpts(t, `
extern int samples[8];
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += samples[i];
    return s;
}`, 0)
}

func TestPostPreIncrement(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int i = 5;
    int a = i++;   // a=5 i=6
    int b = ++i;   // b=7 i=7
    int c = i--;   // c=7 i=6
    return a + b + c + i;
}`, 25)
}

func TestCommaOperator(t *testing.T) {
	checkAllOpts(t, `
int main() {
    int a = (1, 2, 3);
    int b = 0;
    for (int i = 0; i < 3; i++, b++) {}
    return a + b;
}`, 6)
}

func TestNestedCalls(t *testing.T) {
	checkAllOpts(t, `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int main() { return add(mul(2, 3), add(mul(4, 5), 1)); }`, 27)
}

func TestQuicksortInC(t *testing.T) {
	// The paper's flagship complex program, in C this time.
	src := `
int arr[10] = {9, -3, 5, 1, 12, -7, 0, 4, 100, -50};

void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }

int partition(int *v, int lo, int hi) {
    int pivot = v[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (v[j] < pivot) { i++; swap(&v[i], &v[j]); }
    }
    swap(&v[i + 1], &v[hi]);
    return i + 1;
}

void quicksort(int *v, int lo, int hi) {
    if (lo >= hi) return;
    int p = partition(v, lo, hi);
    quicksort(v, lo, p - 1);
    quicksort(v, p + 1, hi);
}

int main() {
    quicksort(arr, 0, 9);
    int ok = 1;
    for (int i = 1; i < 10; i++) {
        if (arr[i - 1] > arr[i]) ok = 0;
    }
    return ok;
}`
	checkAllOpts(t, src, 1)
}

func TestDiagnosticsHaveLines(t *testing.T) {
	_, err := Compile("int main() {\n  return x;\n}", 0)
	if err == nil {
		t.Fatal("undeclared identifier should fail")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error should point at line 2: %v", err)
	}
}

func TestMultipleDiagnostics(t *testing.T) {
	_, err := Compile(`
int main() {
  int a = b;
  int c = d;
  return a + c;
}`, 0)
	if err == nil {
		t.Fatal("should fail")
	}
	dl, ok := err.(DiagList)
	if !ok {
		t.Fatalf("error is %T, want DiagList", err)
	}
	if len(dl) < 2 {
		t.Errorf("want at least 2 diagnostics, got %d", len(dl))
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"int main( { return 0; }",
		"int main() { return 0 }",
		"int main() { if return; }",
		"struct foo { int x; };",
		`int main() { return "hi"; }`,
	}
	for _, src := range cases {
		if _, err := Compile(src, 0); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []string{
		"int main() { int a; a[0] = 1; return 0; }", // indexing non-pointer
		"int main() { 5 = 6; return 0; }",           // bad lvalue
		"int f(int a); int main() { return f(1, 2); }",
		"void v() {} int main() { return v() + 1; }",
	}
	for _, src := range cases {
		if _, err := Compile(src, 0); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

// TestGlobalAndFunctionShareAName: a global and a function of one name
// would be one assembly label, so the later declaration is a C diagnostic
// at its own line, in either order, not an assembler error at a line of
// the generated assembly.
func TestGlobalAndFunctionShareAName(t *testing.T) {
	cases := map[string]int{
		"int A; int A(){return 1;} int main(){return 0;}":             1,
		"int A(){return 1;} int A; int main(){return 0;}":             1,
		"int A;\nint A(){return 1;}\nint main(){return 0;}":           2,
		"int A(){return 1;}\n\nint A;\nint main(){return 0;}":         3,
		"int A();\nint A;\nint A(){return 1;}\nint main(){return 0;}": 2,
	}
	for src, line := range cases {
		_, err := Compile(src, 0)
		var dl DiagList
		if !errors.As(err, &dl) || len(dl) != 1 {
			t.Errorf("Compile(%q) = %v, want one diagnostic", src, err)
			continue
		}
		if dl[0].Line != line || !strings.Contains(dl[0].Msg, "different kind of symbol") {
			t.Errorf("Compile(%q): %v, want a redeclaration at line %d", src, dl[0], line)
		}
	}
}

func TestLineMapLinksCAndAssembly(t *testing.T) {
	src := "int main() {\n  int a = 1;\n  int b = 2;\n  return a + b;\n}"
	res, err := Compile(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(res.Assembly, "\n"), "\n")
	if len(res.LineMap) != len(lines) {
		t.Fatalf("LineMap has %d entries for %d assembly lines", len(res.LineMap), len(lines))
	}
	// Some assembly line must map to C line 4 (the return).
	found := false
	for _, cl := range res.LineMap {
		if cl == 4 {
			found = true
		}
	}
	if !found {
		t.Error("no assembly line maps to the return statement")
	}
}

func TestOptimizationReducesCodeSize(t *testing.T) {
	src := `
int main() {
    int sum = 0;
    for (int i = 0; i < 20; i++) sum += i * 4 + 3 - 3;
    return sum;
}`
	r0, err := Compile(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	n0 := len(strings.Split(r0.Assembly, "\n"))
	n2 := len(strings.Split(r2.Assembly, "\n"))
	if n2 >= n0 {
		t.Errorf("-O2 produced %d lines, -O0 %d — optimization should shrink code", n2, n0)
	}
}

func TestO3UnrollsConstantLoops(t *testing.T) {
	src := `
int main() {
    int sum = 0;
    for (int i = 0; i < 8; i++) sum += i;
    return sum;
}`
	r3, err := Compile(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A fully unrolled loop has no backward branch to a .Lfor label.
	if strings.Contains(r3.Assembly, ".Lfor") {
		t.Errorf("-O3 left the loop rolled:\n%s", r3.Assembly)
	}
	if got := runC(t, src, 3); got != 28 {
		t.Errorf("-O3 result = %d, want 28", got)
	}
}

func TestOptimizedCodeIsFaster(t *testing.T) {
	src := `
int main() {
    int sum = 0;
    for (int i = 0; i < 50; i++) {
        sum += i * 8 / 4 + 1;
    }
    return sum;
}`
	s0 := runCSim(t, src, 0)
	s2 := runCSim(t, src, 2)
	if s2.Cycle() >= s0.Cycle() {
		t.Errorf("-O2 took %d cycles, -O0 took %d — optimization should be faster",
			s2.Cycle(), s0.Cycle())
	}
}

func TestConstantFolding(t *testing.T) {
	r1, err := Compile("int main() { return 2 * 3 + 4 * 5; }", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r1.Assembly, "li t0, 26") {
		t.Errorf("-O1 should fold 2*3+4*5 to 26:\n%s", r1.Assembly)
	}
}

// TestFoldKeepsSideEffects: x*0 folds to 0 only when x has no side
// effect; a call, assignment or increment in the dropped operand still
// runs, at every level, as it does at -O0.
func TestFoldKeepsSideEffects(t *testing.T) {
	cases := []struct {
		name, body string
		want       int32
	}{
		{"call times zero", "int y = f() * 0; int z = 0 * f(); return n * 10 + y + z;", 20},
		{"assignment times zero", "int x = 3; int y = (x = 9) * 0; return x + y;", 9},
		{"increment times zero", "int i = 4; int y = 0 * i++; int z = (++i) * 0; return i + y + z;", 6},
		{"nested call", "return (1 + f()) * 0 + n;", 1},
		{"pure operand", "int x = 7; return x * 0 + 0 * (x + 1) + n;", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAllOpts(t, "int n;\nint f() { n = n + 1; return 5; }\nint main() { "+c.body+" }", c.want)
		})
	}
	// A pure operand still folds away.
	r1, err := Compile("int main() { int x = 7; return x * 0; }", 1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r1.Assembly, "mul") {
		t.Errorf("-O1 should fold x*0 to 0:\n%s", r1.Assembly)
	}
}

// TestFloatFoldRoundsToFloat32: a folded float expression takes the value
// the run computes, each operation rounded to float32, not the exact
// float64 one (1e8 + 1 is 1e8 in float32).
func TestFloatFoldRoundsToFloat32(t *testing.T) {
	checkAllOpts(t, "int main(){ float a = 100000000.0f + 1.0f - 100000000.0f; return (int)a; }", 0)
	checkAllOpts(t, "int main(){ float a = -(16777216.0f + 1.0f); return (int)(a + 16777216.0f); }", 0)
	checkAllOpts(t, "int main(){ float a = (float)16777217; return (int)(a - 16777216.0f); }", 0)
}

func TestStrengthReduction(t *testing.T) {
	src := `
int a[16];
int main() {
    int i = 7;
    return a[i];
}`
	r2, err := Compile(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Assembly, "slli") {
		t.Errorf("-O2 should use a shift for the *4 index scale:\n%s", r2.Assembly)
	}
	if got := runC(t, src, 2); got != 0 {
		t.Errorf("result = %d", got)
	}
}

func TestCompilerOutputPassesAssemblerFilter(t *testing.T) {
	res, err := Compile("int g = 1; int main() { return g; }", 1)
	if err != nil {
		t.Fatal(err)
	}
	filtered := asm.FilterCompilerOutput(res.Assembly)
	mem := memory.New(memory.Config{Size: 64 * 1024, CallStackSize: 1024})
	if _, err := asm.Assemble(filtered, testSet, testRegs, mem); err != nil {
		t.Errorf("filtered compiler output no longer assembles: %v", err)
	}
}
