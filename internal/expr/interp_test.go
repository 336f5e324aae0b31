package expr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"riscvsim/internal/fault"
)

func eval(t *testing.T, src string, env Env) Result {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	r, err := NewEvaluator().Eval(p, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return r
}

func TestAddExpression(t *testing.T) {
	env := MapEnv{"rs1": NewInt(2), "rs2": NewInt(40), "rd": NewInt(0)}
	eval(t, `\rs1 \rs2 + \rd =`, env)
	if got := env["rd"].Int(); got != 42 {
		t.Errorf("rd = %d, want 42", got)
	}
}

func TestPaperListing1AddSemantics(t *testing.T) {
	// The exact expression from the paper's Listing 1.
	env := MapEnv{"rs1": NewInt(-5), "rs2": NewInt(3), "rd": NewInt(0)}
	eval(t, `\rs1 \rs2 + \rd =`, env)
	if got := env["rd"].Int(); got != -2 {
		t.Errorf("rd = %d, want -2", got)
	}
}

func TestExpressionLeavesValueOnStack(t *testing.T) {
	env := MapEnv{"rs1": NewInt(10), "imm": NewInt(32)}
	r := eval(t, `\rs1 \imm +`, env)
	if !r.HasValue || r.Value.Int() != 42 {
		t.Errorf("stack result = %v (has=%v), want 42", r.Value, r.HasValue)
	}
}

func TestBranchConditionResult(t *testing.T) {
	env := MapEnv{"rs1": NewInt(5), "rs2": NewInt(5)}
	r := eval(t, `\rs1 \rs2 ==`, env)
	if !r.HasValue || !r.Value.Bool() {
		t.Error("5 == 5 should leave true on the stack")
	}
	env["rs2"] = NewInt(6)
	r = eval(t, `\rs1 \rs2 ==`, env)
	if r.Value.Bool() {
		t.Error("5 == 6 should be false")
	}
}

func TestAssignmentAndStackResultTogether(t *testing.T) {
	// jalr-style: link register write plus target on the stack.
	env := MapEnv{"pc": NewInt(10), "rd": NewInt(0), "rs1": NewInt(100), "imm": NewInt(4)}
	r := eval(t, `\pc 1 + \rd = \rs1 \imm +`, env)
	if got := env["rd"].Int(); got != 11 {
		t.Errorf("link rd = %d, want 11", got)
	}
	if !r.HasValue || r.Value.Int() != 104 {
		t.Errorf("target = %v, want 104", r.Value)
	}
}

func TestIntOverflowWraps(t *testing.T) {
	env := MapEnv{"rs1": NewInt(math.MaxInt32), "rs2": NewInt(1), "rd": NewInt(0)}
	eval(t, `\rs1 \rs2 + \rd =`, env)
	if got := env["rd"].Int(); got != math.MinInt32 {
		t.Errorf("MaxInt32+1 = %d, want MinInt32", got)
	}
}

func TestDivisionByZeroRaisesFault(t *testing.T) {
	p := MustCompile(`\rs1 \rs2 / \rd =`)
	env := MapEnv{"rs1": NewInt(7), "rs2": NewInt(0), "rd": NewInt(0)}
	_, err := NewEvaluator().Eval(p, env)
	var exc *fault.Exception
	if !errors.As(err, &exc) || exc.Kind != fault.DivisionByZero {
		t.Fatalf("err = %v, want DivisionByZero fault", err)
	}
}

func TestRemainderByZeroRaisesFault(t *testing.T) {
	for _, src := range []string{`\a \b %`, `\a \b %u`, `\a \b /u`} {
		p := MustCompile(src)
		_, err := NewEvaluator().Eval(p, MapEnv{"a": NewInt(7), "b": NewInt(0)})
		var exc *fault.Exception
		if !errors.As(err, &exc) || exc.Kind != fault.DivisionByZero {
			t.Errorf("%s: err = %v, want DivisionByZero", src, err)
		}
	}
}

func TestFloatDivisionByZeroIsInf(t *testing.T) {
	env := MapEnv{"a": NewFloat(1), "b": NewFloat(0)}
	r := eval(t, `\a \b /`, env)
	if !math.IsInf(float64(r.Value.Float()), 1) {
		t.Errorf("1.0/0.0 = %v, want +Inf", r.Value.Float())
	}
}

func TestRiscvDivOverflow(t *testing.T) {
	// RISC-V: MinInt32 / -1 = MinInt32, MinInt32 % -1 = 0.
	env := MapEnv{"a": NewInt(math.MinInt32), "b": NewInt(-1)}
	if r := eval(t, `\a \b /`, env); r.Value.Int() != math.MinInt32 {
		t.Errorf("div overflow = %d, want MinInt32", r.Value.Int())
	}
	if r := eval(t, `\a \b %`, env); r.Value.Int() != 0 {
		t.Errorf("rem overflow = %d, want 0", r.Value.Int())
	}
}

func TestShiftAmountIsMasked(t *testing.T) {
	env := MapEnv{"a": NewInt(1), "b": NewInt(33)}
	if r := eval(t, `\a \b <<`, env); r.Value.Int() != 2 {
		t.Errorf("1 << 33 = %d, want 2 (5-bit mask)", r.Value.Int())
	}
}

func TestArithmeticVsLogicalShift(t *testing.T) {
	env := MapEnv{"a": NewInt(-8), "b": NewInt(1)}
	if r := eval(t, `\a \b >>`, env); r.Value.Int() != -4 {
		t.Errorf("-8 >> 1 = %d, want -4", r.Value.Int())
	}
	if r := eval(t, `\a \b >>>`, env); r.Value.UInt() != 0x7FFFFFFC {
		t.Errorf("-8 >>> 1 = %#x, want 0x7FFFFFFC", r.Value.UInt())
	}
}

func TestUnsignedComparisons(t *testing.T) {
	env := MapEnv{"a": NewInt(-1), "b": NewInt(1)}
	if r := eval(t, `\a \b <`, env); !r.Value.Bool() {
		t.Error("-1 < 1 signed should be true")
	}
	if r := eval(t, `\a \b <u`, env); r.Value.Bool() {
		t.Error("-1 <u 1 unsigned should be false (0xFFFFFFFF > 1)")
	}
}

func TestMulhVariants(t *testing.T) {
	env := MapEnv{"a": NewInt(-1), "b": NewInt(-1)}
	if r := eval(t, `\a \b mulh`, env); r.Value.Int() != 0 {
		t.Errorf("mulh(-1,-1) = %d, want 0", r.Value.Int())
	}
	if r := eval(t, `\a \b mulhu`, env); r.Value.UInt() != 0xFFFFFFFE {
		t.Errorf("mulhu(-1,-1) = %#x, want 0xFFFFFFFE", r.Value.UInt())
	}
	if r := eval(t, `\a \b mulhsu`, env); r.Value.UInt() != 0xFFFFFFFF {
		t.Errorf("mulhsu(-1,0xFFFFFFFF) = %#x, want 0xFFFFFFFF", r.Value.UInt())
	}
}

func TestFloatArithmetic(t *testing.T) {
	env := MapEnv{"a": NewFloat(1.5), "b": NewFloat(2.25), "rd": NewFloat(0)}
	eval(t, `\a \b + \rd =`, env)
	if got := env["rd"].Float(); got != 3.75 {
		t.Errorf("1.5+2.25 = %v", got)
	}
}

func TestSqrt(t *testing.T) {
	env := MapEnv{"a": NewFloat(9)}
	if r := eval(t, `\a sqrt`, env); r.Value.Float() != 3 {
		t.Errorf("sqrt(9) = %v", r.Value.Float())
	}
	env2 := MapEnv{"a": NewDouble(2)}
	r := eval(t, `\a sqrt`, env2)
	if math.Abs(r.Value.Double()-math.Sqrt2) > 1e-15 {
		t.Errorf("sqrt(2) = %v", r.Value.Double())
	}
}

func TestFloatIntConversions(t *testing.T) {
	env := MapEnv{"a": NewFloat(-3.7)}
	if r := eval(t, `\a int`, env); r.Value.Int() != -3 {
		t.Errorf("fcvt.w.s(-3.7) = %d, want -3", r.Value.Int())
	}
	env = MapEnv{"a": NewFloat(float32(math.MaxInt32) * 4)}
	if r := eval(t, `\a int`, env); r.Value.Int() != math.MaxInt32 {
		t.Errorf("fcvt.w.s(huge) = %d, want saturation to MaxInt32", r.Value.Int())
	}
	env = MapEnv{"a": NewFloat(float32(math.NaN()))}
	if r := eval(t, `\a int`, env); r.Value.Int() != math.MaxInt32 {
		t.Errorf("fcvt.w.s(NaN) = %d, want MaxInt32", r.Value.Int())
	}
	env = MapEnv{"a": NewFloat(-1)}
	if r := eval(t, `\a uint`, env); r.Value.UInt() != 0 {
		t.Errorf("fcvt.wu.s(-1) = %d, want 0", r.Value.UInt())
	}
	env = MapEnv{"a": NewInt(7)}
	if r := eval(t, `\a float`, env); r.Value.Float() != 7 {
		t.Errorf("fcvt.s.w(7) = %v", r.Value.Float())
	}
}

func TestBitMoves(t *testing.T) {
	env := MapEnv{"a": NewFloat(1.0)}
	r := eval(t, `\a bitsToInt`, env)
	if r.Value.UInt() != 0x3F800000 {
		t.Errorf("fmv.x.w(1.0) = %#x, want 0x3F800000", r.Value.UInt())
	}
	env = MapEnv{"a": NewUInt(0x3F800000)}
	r = eval(t, `\a bitsToFloat`, env)
	if r.Value.Float() != 1.0 {
		t.Errorf("fmv.w.x(0x3F800000) = %v, want 1.0", r.Value.Float())
	}
}

func TestSignInjection(t *testing.T) {
	env := MapEnv{"a": NewFloat(1.5), "b": NewFloat(-2.0)}
	if r := eval(t, `\a \b sgnj`, env); r.Value.Float() != -1.5 {
		t.Errorf("fsgnj(1.5,-2) = %v, want -1.5", r.Value.Float())
	}
	if r := eval(t, `\a \b sgnjn`, env); r.Value.Float() != 1.5 {
		t.Errorf("fsgnjn(1.5,-2) = %v, want 1.5", r.Value.Float())
	}
	env = MapEnv{"a": NewFloat(-1.5), "b": NewFloat(-2.0)}
	if r := eval(t, `\a \b sgnjx`, env); r.Value.Float() != 1.5 {
		t.Errorf("fsgnjx(-1.5,-2) = %v, want 1.5", r.Value.Float())
	}
}

func TestFclass(t *testing.T) {
	cases := []struct {
		v    Value
		want int32
	}{
		{NewFloat(float32(math.Inf(-1))), 1 << 0},
		{NewFloat(-1.5), 1 << 1},
		{NewFloat(float32(math.Copysign(0, -1))), 1 << 3},
		{NewFloat(0), 1 << 4},
		{NewFloat(1.5), 1 << 6},
		{NewFloat(float32(math.Inf(1))), 1 << 7},
		{NewFloat(float32(math.NaN())), 1 << 9},
	}
	for _, c := range cases {
		env := MapEnv{"a": c.v}
		if r := eval(t, `\a fclass`, env); r.Value.Int() != c.want {
			t.Errorf("fclass(%v) = %#x, want %#x", c.v, r.Value.Int(), c.want)
		}
	}
}

func TestNaNComparisonsAreFalse(t *testing.T) {
	env := MapEnv{"a": NewFloat(float32(math.NaN())), "b": NewFloat(1)}
	for _, src := range []string{`\a \b <`, `\a \b <=`, `\a \b ==`} {
		if r := eval(t, src, env); r.Value.Bool() {
			t.Errorf("%s with NaN should be false", src)
		}
	}
}

func TestMinMax(t *testing.T) {
	env := MapEnv{"a": NewInt(3), "b": NewInt(-4)}
	if r := eval(t, `\a \b min`, env); r.Value.Int() != -4 {
		t.Errorf("min(3,-4) = %d", r.Value.Int())
	}
	if r := eval(t, `\a \b max`, env); r.Value.Int() != 3 {
		t.Errorf("max(3,-4) = %d", r.Value.Int())
	}
	fenv := MapEnv{"a": NewFloat(3), "b": NewFloat(-4)}
	if r := eval(t, `\a \b min`, fenv); r.Value.Float() != -4 {
		t.Errorf("fmin(3,-4) = %v", r.Value.Float())
	}
}

func TestLiteralForms(t *testing.T) {
	env := MapEnv{}
	if r := eval(t, `0x10 2 +`, env); r.Value.Int() != 18 {
		t.Errorf("0x10+2 = %d", r.Value.Int())
	}
	if r := eval(t, `-5 1 +`, env); r.Value.Int() != -4 {
		t.Errorf("-5+1 = %d", r.Value.Int())
	}
	if r := eval(t, `1.5 2.0 *`, env); r.Value.Double() != 3.0 {
		t.Errorf("1.5*2.0 = %v", r.Value.Double())
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`\a +`,       // underflow
		`frobnicate`, // unknown operator
		`\`,          // empty reference
		`\a \b = `,   // assign with non-empty stack is fine; but `=` target must be a ref:
	}
	for _, src := range bad[:3] {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
	// `1 2 =` — target is a literal, not a reference.
	if _, err := Compile(`1 2 =`); err == nil {
		t.Error("Compile(`1 2 =`) should fail: assignment target must be a reference")
	}
}

func TestUndefinedOperand(t *testing.T) {
	p := MustCompile(`\nope 1 +`)
	if _, err := NewEvaluator().Eval(p, MapEnv{}); err == nil {
		t.Error("expected undefined-operand error")
	}
}

// TestWritesList: a program assigns exactly the operands its `=` targets
// name, and leaves every other operand as it was.
func TestWritesList(t *testing.T) {
	env := MapEnv{"pc": NewInt(4), "rd": NewInt(0), "rs1": NewInt(1), "imm": NewInt(2)}
	eval(t, `\pc 1 + \rd = \rs1 \imm +`, env)
	want := MapEnv{"pc": NewInt(4), "rd": NewInt(5), "rs1": NewInt(1), "imm": NewInt(2)}
	for name, v := range want {
		if env[name] != v {
			t.Errorf("%s = %v, want %v", name, env[name], v)
		}
	}
}

func TestPickDuplicatesTop(t *testing.T) {
	env := MapEnv{"a": NewInt(21), "out": NewInt(0)}
	r := eval(t, `\a pick \out = `, env)
	if env["out"].Int() != 21 {
		t.Errorf("out = %d, want 21", env["out"].Int())
	}
	if !r.HasValue || r.Value.Int() != 21 {
		t.Errorf("stack top = %v, want 21", r.Value)
	}
}

// Property: integer add in the interpreter matches Go's int32 arithmetic.
func TestPropertyAddMatchesInt32(t *testing.T) {
	p := MustCompile(`\a \b +`)
	ev := NewEvaluator()
	f := func(a, b int32) bool {
		r, err := ev.Eval(p, MapEnv{"a": NewInt(a), "b": NewInt(b)})
		return err == nil && r.Value.Int() == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: signed/unsigned division agrees with Go for non-zero divisors.
func TestPropertyDivMatchesGo(t *testing.T) {
	pdiv := MustCompile(`\a \b /`)
	pdivu := MustCompile(`\a \b /u`)
	ev := NewEvaluator()
	f := func(a, b int32) bool {
		if b == 0 {
			return true
		}
		r, err := ev.Eval(pdiv, MapEnv{"a": NewInt(a), "b": NewInt(b)})
		if err != nil {
			return false
		}
		if a == math.MinInt32 && b == -1 {
			return r.Value.Int() == math.MinInt32
		}
		if r.Value.Int() != a/b {
			return false
		}
		ru, err := ev.Eval(pdivu, MapEnv{"a": NewInt(a), "b": NewInt(b)})
		return err == nil && ru.Value.UInt() == uint32(a)/uint32(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bitwise ops match Go.
func TestPropertyBitwiseMatchesGo(t *testing.T) {
	pand := MustCompile(`\a \b &`)
	por := MustCompile(`\a \b |`)
	pxor := MustCompile(`\a \b ^`)
	ev := NewEvaluator()
	f := func(a, b uint32) bool {
		ra, _ := ev.Eval(pand, MapEnv{"a": NewUInt(a), "b": NewUInt(b)})
		ro, _ := ev.Eval(por, MapEnv{"a": NewUInt(a), "b": NewUInt(b)})
		rx, _ := ev.Eval(pxor, MapEnv{"a": NewUInt(a), "b": NewUInt(b)})
		return ra.Value.UInt() == a&b && ro.Value.UInt() == a|b && rx.Value.UInt() == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: float32 arithmetic is correctly rounded (matches Go float32).
func TestPropertyFloatMulMatchesGo(t *testing.T) {
	p := MustCompile(`\a \b *`)
	ev := NewEvaluator()
	f := func(a, b float32) bool {
		r, err := ev.Eval(p, MapEnv{"a": NewFloat(a), "b": NewFloat(b)})
		if err != nil {
			return false
		}
		want := a * b
		got := r.Value.Float()
		if math.IsNaN(float64(want)) {
			return math.IsNaN(float64(got))
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalAdd(b *testing.B) {
	p := MustCompile(`\rs1 \rs2 + \rd =`)
	env := MapEnv{"rs1": NewInt(2), "rs2": NewInt(40), "rd": NewInt(0)}
	ev := NewEvaluator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(p, env); err != nil {
			b.Fatal(err)
		}
	}
}
