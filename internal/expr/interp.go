package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"riscvsim/internal/fault"
)

// Env supplies operand values to an expression and receives assignment side
// effects. In the simulator the Env is backed by the instruction's renamed
// operands and the register files.
type Env interface {
	// Get returns the value of the named operand (e.g. "rs1", "imm", "pc").
	Get(name string) (Value, bool)
	// Set assigns a value to the named operand. Implementations convert
	// the value to the operand's declared type and may silently discard
	// writes (e.g. to the hardwired x0).
	Set(name string, v Value) error
}

// MapEnv is a simple Env backed by a map, convenient for tests and for the
// assembler's label-arithmetic evaluation.
type MapEnv map[string]Value

// Get implements Env.
func (m MapEnv) Get(name string) (Value, bool) { v, ok := m[name]; return v, ok }

// Set implements Env.
func (m MapEnv) Set(name string, v Value) error {
	if old, ok := m[name]; ok {
		m[name] = v.Convert(old.Type())
	} else {
		m[name] = v
	}
	return nil
}

type tokenKind uint8

const (
	tokRef tokenKind = iota // \name — operand reference
	tokLit                  // numeric literal
	tokOp                   // operator
)

type token struct {
	kind  tokenKind
	name  string // operand name or operator symbol
	val   Value  // literal value
	op    opcode
	arity int8 // operator arity, resolved at compile time
}

// Program is a compiled expression, ready for repeated evaluation.
type Program struct {
	src    string
	tokens []token
	// maxStack is the deepest stack the program can reach; used to size
	// evaluator stacks without reallocation.
	maxStack int
}

type opcode uint8

const (
	opAdd opcode = iota
	opSub
	opMul
	opDiv
	opDivU
	opRem
	opRemU
	opMulH
	opMulHU
	opMulHSU
	opAnd
	opOr
	opXor
	opShl
	opShrA // arithmetic >>
	opShrL // logical >>>
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLtU
	opLeU
	opGtU
	opGeU
	opNot
	opNeg
	opAbs
	opSqrt
	opMin
	opMax
	opSgnj
	opSgnjn
	opSgnjx
	opFclass
	opCvtInt
	opCvtUInt
	opCvtLong
	opCvtULong
	opCvtFloat
	opCvtDouble
	opBitsToFloat
	opBitsToDouble
	opBitsToInt
	opBitsToLong
	opAssign
	opPick // duplicate top of stack
)

type opInfo struct {
	code  opcode
	arity int
}

var operators = map[string]opInfo{
	"+":            {opAdd, 2},
	"-":            {opSub, 2},
	"*":            {opMul, 2},
	"/":            {opDiv, 2},
	"/u":           {opDivU, 2},
	"%":            {opRem, 2},
	"%u":           {opRemU, 2},
	"mulh":         {opMulH, 2},
	"mulhu":        {opMulHU, 2},
	"mulhsu":       {opMulHSU, 2},
	"&":            {opAnd, 2},
	"|":            {opOr, 2},
	"^":            {opXor, 2},
	"<<":           {opShl, 2},
	">>":           {opShrA, 2},
	">>>":          {opShrL, 2},
	"==":           {opEq, 2},
	"!=":           {opNe, 2},
	"<":            {opLt, 2},
	"<=":           {opLe, 2},
	">":            {opGt, 2},
	">=":           {opGe, 2},
	"<u":           {opLtU, 2},
	"<=u":          {opLeU, 2},
	">u":           {opGtU, 2},
	">=u":          {opGeU, 2},
	"!":            {opNot, 1},
	"neg":          {opNeg, 1},
	"abs":          {opAbs, 1},
	"sqrt":         {opSqrt, 1},
	"min":          {opMin, 2},
	"max":          {opMax, 2},
	"sgnj":         {opSgnj, 2},
	"sgnjn":        {opSgnjn, 2},
	"sgnjx":        {opSgnjx, 2},
	"fclass":       {opFclass, 1},
	"int":          {opCvtInt, 1},
	"uint":         {opCvtUInt, 1},
	"long":         {opCvtLong, 1},
	"ulong":        {opCvtULong, 1},
	"float":        {opCvtFloat, 1},
	"double":       {opCvtDouble, 1},
	"bitsToFloat":  {opBitsToFloat, 1},
	"bitsToDouble": {opBitsToDouble, 1},
	"bitsToInt":    {opBitsToInt, 1},
	"bitsToLong":   {opBitsToLong, 1},
	"=":            {opAssign, 2},
	"pick":         {opPick, 1},
}

// Compile parses a postfix expression into a Program. Tokens are separated
// by whitespace; `\name` references an operand, bare numbers are literals
// (decimal, hex 0x..., or floating point with a '.' or exponent), everything
// else must be a known operator.
func Compile(src string) (*Program, error) {
	fields := strings.Fields(src)
	p := &Program{src: src, tokens: make([]token, 0, len(fields))}
	depth, maxDepth := 0, 0
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "\\"):
			name := f[1:]
			if name == "" {
				return nil, fmt.Errorf("expr: empty operand reference in %q", src)
			}
			p.tokens = append(p.tokens, token{kind: tokRef, name: name})
			depth++
		case isNumericStart(f):
			v, err := parseLiteral(f)
			if err != nil {
				return nil, fmt.Errorf("expr: bad literal %q in %q: %w", f, src, err)
			}
			p.tokens = append(p.tokens, token{kind: tokLit, val: v})
			depth++
		default:
			info, ok := operators[f]
			if !ok {
				return nil, fmt.Errorf("expr: unknown operator %q in %q", f, src)
			}
			if depth < info.arity {
				return nil, fmt.Errorf("expr: stack underflow at %q in %q", f, src)
			}
			if info.code == opAssign {
				// `=` pops the value and the target reference.
				if p.tokens[len(p.tokens)-1].kind != tokRef {
					return nil, fmt.Errorf("expr: `=` target must be an operand reference in %q", src)
				}
				depth -= 2
			} else if info.code == opPick {
				depth++ // duplicates the top
			} else {
				depth -= info.arity - 1
			}
			p.tokens = append(p.tokens, token{kind: tokOp, name: f, op: info.code, arity: int8(info.arity)})
		}
		if depth > maxDepth {
			maxDepth = depth
		}
		if depth < 0 {
			return nil, fmt.Errorf("expr: stack underflow in %q", src)
		}
	}
	p.maxStack = maxDepth
	return p, nil
}

// MustCompile is like Compile but panics on error; it is used for the
// built-in ISA table, which is validated by tests.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

func isNumericStart(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c >= '0' && c <= '9' {
		return true
	}
	if (c == '-' || c == '+') && len(s) > 1 {
		d := s[1]
		return d >= '0' && d <= '9'
	}
	return c == '.' && len(s) > 1 && s[1] >= '0' && s[1] <= '9'
}

func parseLiteral(s string) (Value, error) {
	if strings.ContainsAny(s, ".eE") && !strings.HasPrefix(s, "0x") && !strings.HasPrefix(s, "-0x") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, err
		}
		return NewDouble(f), nil
	}
	i, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Large unsigned constants.
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return Value{}, err
		}
		return NewULong(u), nil
	}
	if i >= math.MinInt32 && i <= math.MaxInt32 {
		return NewInt(int32(i)), nil
	}
	return NewLong(i), nil
}

// stack element: either a resolved value or an unresolved operand reference
// (needed so `=` can see its target name).
type operand struct {
	val   Value
	name  string
	isRef bool
}

// Evaluator evaluates compiled programs. It owns a reusable stack, so a
// single Evaluator per functional unit avoids per-instruction allocation.
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	stack []operand
}

// NewEvaluator returns an evaluator with a pre-sized stack.
func NewEvaluator() *Evaluator {
	return &Evaluator{stack: make([]operand, 0, 16)}
}

// Result is the outcome of evaluating an expression.
type Result struct {
	// Value is the value left on the stack, if any (jump targets, branch
	// conditions).
	Value Value
	// HasValue reports whether Value is meaningful.
	HasValue bool
}

// Eval runs the program against env. The error, when non-nil, is a
// *fault.Exception for simulation faults (division by zero, ...) or an
// ordinary error for malformed programs/environments.
func (e *Evaluator) Eval(p *Program, env Env) (Result, error) {
	if cap(e.stack) < p.maxStack {
		e.stack = make([]operand, 0, p.maxStack)
	}
	st := e.stack[:0]

	resolve := func(o *operand) (Value, error) {
		if !o.isRef {
			return o.val, nil
		}
		v, ok := env.Get(o.name)
		if !ok {
			return Value{}, fmt.Errorf("expr: undefined operand %q in %q", o.name, p.src)
		}
		return v, nil
	}

	for i := range p.tokens {
		t := &p.tokens[i]
		switch t.kind {
		case tokRef:
			st = append(st, operand{name: t.name, isRef: true})
		case tokLit:
			st = append(st, operand{val: t.val})
		case tokOp:
			switch t.op {
			case opAssign:
				if len(st) < 2 {
					return Result{}, fmt.Errorf("expr: stack underflow at `=` in %q", p.src)
				}
				target := st[len(st)-1]
				if !target.isRef {
					return Result{}, fmt.Errorf("expr: `=` target is not a reference in %q", p.src)
				}
				v, err := resolve(&st[len(st)-2])
				if err != nil {
					return Result{}, err
				}
				st = st[:len(st)-2]
				if err := env.Set(target.name, v); err != nil {
					return Result{}, err
				}
			case opPick:
				if len(st) < 1 {
					return Result{}, fmt.Errorf("expr: stack underflow at `pick` in %q", p.src)
				}
				v, err := resolve(&st[len(st)-1])
				if err != nil {
					return Result{}, err
				}
				st[len(st)-1] = operand{val: v}
				st = append(st, operand{val: v})
			default:
				// Arity was resolved at compile time; no map lookup in
				// the evaluation loop.
				if t.arity == 1 {
					v, err := resolve(&st[len(st)-1])
					if err != nil {
						return Result{}, err
					}
					r, err := applyUnary(t.op, v)
					if err != nil {
						return Result{}, err
					}
					st[len(st)-1] = operand{val: r}
				} else {
					if len(st) < 2 {
						return Result{}, fmt.Errorf("expr: stack underflow at %q in %q", t.name, p.src)
					}
					b, err := resolve(&st[len(st)-1])
					if err != nil {
						return Result{}, err
					}
					a, err := resolve(&st[len(st)-2])
					if err != nil {
						return Result{}, err
					}
					r, err := applyBinary(t.op, a, b)
					if err != nil {
						return Result{}, err
					}
					st = st[:len(st)-1]
					st[len(st)-1] = operand{val: r}
				}
			}
		}
	}
	e.stack = st[:0]
	if len(st) == 0 {
		return Result{}, nil
	}
	v, err := resolveTop(env, p, st)
	if err != nil {
		return Result{}, err
	}
	return Result{Value: v, HasValue: true}, nil
}

func resolveTop(env Env, p *Program, st []operand) (Value, error) {
	top := st[len(st)-1]
	if !top.isRef {
		return top.val, nil
	}
	v, ok := env.Get(top.name)
	if !ok {
		return Value{}, fmt.Errorf("expr: undefined operand %q in %q", top.name, p.src)
	}
	return v, nil
}

func applyUnary(op opcode, v Value) (Value, error) {
	switch op {
	case opNot:
		return NewBool(!v.Bool()), nil
	case opNeg:
		switch {
		case v.Type() == Double:
			return NewDouble(-v.Double()), nil
		case v.Type() == Float:
			return NewFloat(-v.Float()), nil
		case v.Type() == Long || v.Type() == ULong:
			return NewLong(-v.Long()), nil
		default:
			return NewInt(-v.Int()), nil
		}
	case opAbs:
		switch {
		case v.Type() == Double:
			return NewDouble(math.Abs(v.Double())), nil
		case v.Type() == Float:
			return NewFloat(float32(math.Abs(float64(v.Float())))), nil
		case v.Type() == Long || v.Type() == ULong:
			l := v.Long()
			if l < 0 {
				l = -l
			}
			return NewLong(l), nil
		default:
			i := v.Int()
			if i < 0 {
				i = -i
			}
			return NewInt(i), nil
		}
	case opSqrt:
		if v.Type() == Float {
			return NewFloat(float32(math.Sqrt(float64(v.Float())))), nil
		}
		return NewDouble(math.Sqrt(v.Double())), nil
	case opFclass:
		return NewInt(fclass(v)), nil
	case opCvtInt:
		return cvtFloatToInt(v)
	case opCvtUInt:
		return cvtFloatToUInt(v)
	case opCvtLong:
		return NewLong(v.Long()), nil
	case opCvtULong:
		return NewULong(v.ULong()), nil
	case opCvtFloat:
		return NewFloat(v.Float()), nil
	case opCvtDouble:
		return NewDouble(v.Double()), nil
	case opBitsToFloat:
		return FromBits(v.Bits(), Float), nil
	case opBitsToDouble:
		return FromBits(v.Bits(), Double), nil
	case opBitsToInt:
		return FromBits(v.Bits(), Int), nil
	case opBitsToLong:
		return FromBits(v.Bits(), Long), nil
	}
	return Value{}, fmt.Errorf("expr: bad unary opcode %d", op)
}

// cvtFloatToInt implements fcvt.w.s / fcvt.w.d semantics: truncation with
// RISC-V saturation on overflow and NaN mapping to the maximum integer.
func cvtFloatToInt(v Value) (Value, error) {
	if !v.Type().IsFloat() {
		return NewInt(v.Int()), nil
	}
	f := v.Double()
	switch {
	case math.IsNaN(f):
		return NewInt(math.MaxInt32), nil
	case f >= math.MaxInt32:
		return NewInt(math.MaxInt32), nil
	case f <= math.MinInt32:
		return NewInt(math.MinInt32), nil
	}
	return NewInt(int32(f)), nil
}

func cvtFloatToUInt(v Value) (Value, error) {
	if !v.Type().IsFloat() {
		return NewUInt(v.UInt()), nil
	}
	f := v.Double()
	switch {
	case math.IsNaN(f):
		return NewUInt(math.MaxUint32), nil
	case f >= math.MaxUint32:
		return NewUInt(math.MaxUint32), nil
	case f <= 0:
		return NewUInt(0), nil
	}
	return NewUInt(uint32(f)), nil
}

// fclass implements the RISC-V FCLASS bit encoding.
func fclass(v Value) int32 {
	f := v.Double()
	neg := math.Signbit(f)
	switch {
	case math.IsInf(f, -1):
		return 1 << 0
	case math.IsInf(f, 1):
		return 1 << 7
	case math.IsNaN(f):
		return 1 << 9 // quiet NaN (signaling NaNs are not distinguished)
	case f == 0 && neg:
		return 1 << 3
	case f == 0:
		return 1 << 4
	case isSubnormal(v):
		if neg {
			return 1 << 2
		}
		return 1 << 5
	case neg:
		return 1 << 1
	default:
		return 1 << 6
	}
}

func isSubnormal(v Value) bool {
	if v.Type() == Float {
		b := uint32(v.Bits())
		return b&0x7F800000 == 0 && b&0x007FFFFF != 0
	}
	if v.Type() == Double {
		b := v.Bits()
		return b&0x7FF0000000000000 == 0 && b&0x000FFFFFFFFFFFFF != 0
	}
	return false
}

func applyBinary(op opcode, a, b Value) (Value, error) {
	ct := promote(a.Type(), b.Type())
	switch op {
	case opAdd:
		return arith(ct, a, b, func(x, y int64) int64 { return x + y }, func(x, y float64) float64 { return x + y })
	case opSub:
		return arith(ct, a, b, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
	case opMul:
		return arith(ct, a, b, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
	case opDiv:
		if ct.IsFloat() {
			return arith(ct, a, b, nil, func(x, y float64) float64 { return x / y })
		}
		if b.Long() == 0 {
			return Value{}, fault.New(fault.DivisionByZero, "integer division %s / 0", a)
		}
		if ct == Int && a.Int() == math.MinInt32 && b.Int() == -1 {
			return NewInt(math.MinInt32), nil // RISC-V overflow semantics
		}
		return intArith(ct, a.Long()/b.Long()), nil
	case opDivU:
		if b.ULong() == 0 {
			return Value{}, fault.New(fault.DivisionByZero, "unsigned division %s / 0", a)
		}
		if ct == Long || ct == ULong {
			return NewULong(a.ULong() / b.ULong()), nil
		}
		return NewUInt(a.UInt() / b.UInt()), nil
	case opRem:
		if ct.IsFloat() {
			return arith(ct, a, b, nil, math.Mod)
		}
		if b.Long() == 0 {
			return Value{}, fault.New(fault.DivisionByZero, "integer remainder %s %% 0", a)
		}
		if ct == Int && a.Int() == math.MinInt32 && b.Int() == -1 {
			return NewInt(0), nil
		}
		return intArith(ct, a.Long()%b.Long()), nil
	case opRemU:
		if b.ULong() == 0 {
			return Value{}, fault.New(fault.DivisionByZero, "unsigned remainder %s %% 0", a)
		}
		if ct == Long || ct == ULong {
			return NewULong(a.ULong() % b.ULong()), nil
		}
		return NewUInt(a.UInt() % b.UInt()), nil
	case opMulH:
		return NewInt(int32((int64(a.Int()) * int64(b.Int())) >> 32)), nil
	case opMulHU:
		return NewInt(int32((uint64(a.UInt()) * uint64(b.UInt())) >> 32)), nil
	case opMulHSU:
		return NewInt(int32((int64(a.Int()) * int64(uint64(b.UInt()))) >> 32)), nil
	case opAnd:
		return bitop(ct, a, b, func(x, y uint64) uint64 { return x & y }), nil
	case opOr:
		return bitop(ct, a, b, func(x, y uint64) uint64 { return x | y }), nil
	case opXor:
		return bitop(ct, a, b, func(x, y uint64) uint64 { return x ^ y }), nil
	case opShl:
		if ct == Long || ct == ULong {
			return intArith(ct, a.Long()<<(b.ULong()&63)), nil
		}
		return intArith(ct, int64(int32(a.UInt()<<(b.UInt()&31)))), nil
	case opShrA:
		if ct == Long || ct == ULong {
			return NewLong(a.Long() >> (b.ULong() & 63)), nil
		}
		return NewInt(a.Int() >> (b.UInt() & 31)), nil
	case opShrL:
		if ct == Long || ct == ULong {
			return NewULong(a.ULong() >> (b.ULong() & 63)), nil
		}
		return NewUInt(a.UInt() >> (b.UInt() & 31)), nil
	case opEq:
		return compare(ct, a, b, func(c int) bool { return c == 0 }), nil
	case opNe:
		return compare(ct, a, b, func(c int) bool { return c != 0 }), nil
	case opLt:
		return compare(ct, a, b, func(c int) bool { return c < 0 }), nil
	case opLe:
		return compare(ct, a, b, func(c int) bool { return c <= 0 }), nil
	case opGt:
		return compare(ct, a, b, func(c int) bool { return c > 0 }), nil
	case opGe:
		return compare(ct, a, b, func(c int) bool { return c >= 0 }), nil
	case opLtU:
		return NewBool(a.ULong() < b.ULong()), nil
	case opLeU:
		return NewBool(a.ULong() <= b.ULong()), nil
	case opGtU:
		return NewBool(a.ULong() > b.ULong()), nil
	case opGeU:
		return NewBool(a.ULong() >= b.ULong()), nil
	case opMin:
		if ct.IsFloat() {
			return arith(ct, a, b, nil, math.Min)
		}
		if a.Long() < b.Long() {
			return a.Convert(ct), nil
		}
		return b.Convert(ct), nil
	case opMax:
		if ct.IsFloat() {
			return arith(ct, a, b, nil, math.Max)
		}
		if a.Long() > b.Long() {
			return a.Convert(ct), nil
		}
		return b.Convert(ct), nil
	case opSgnj, opSgnjn, opSgnjx:
		return signInject(op, a, b), nil
	}
	return Value{}, fmt.Errorf("expr: bad binary opcode %d", op)
}

func arith(ct Type, a, b Value, iop func(int64, int64) int64, fop func(float64, float64) float64) (Value, error) {
	switch ct {
	case Double:
		return NewDouble(fop(a.Double(), b.Double())), nil
	case Float:
		return NewFloat(float32(fop(float64(a.Float()), float64(b.Float())))), nil
	default:
		return intArith(ct, iop(a.Long(), b.Long())), nil
	}
}

// intArith truncates a 64-bit result to the common integer type.
func intArith(ct Type, r int64) Value {
	switch ct {
	case Long:
		return NewLong(r)
	case ULong:
		return NewULong(uint64(r))
	case UInt:
		return NewUInt(uint32(r))
	default:
		return NewInt(int32(r))
	}
}

func bitop(ct Type, a, b Value, f func(uint64, uint64) uint64) Value {
	r := f(a.ULong(), b.ULong())
	return intArith(ct, int64(r))
}

func compare(ct Type, a, b Value, test func(int) bool) Value {
	var c int
	switch {
	case ct.IsFloat():
		x, y := a.Double(), b.Double()
		switch {
		case math.IsNaN(x) || math.IsNaN(y):
			// RISC-V FP comparisons with NaN are false; encode as
			// "incomparable", which fails every ordering test.
			return NewBool(false)
		case x < y:
			c = -1
		case x > y:
			c = 1
		}
	case ct == UInt || ct == ULong:
		x, y := a.ULong(), b.ULong()
		switch {
		case x < y:
			c = -1
		case x > y:
			c = 1
		}
	default:
		x, y := a.Long(), b.Long()
		switch {
		case x < y:
			c = -1
		case x > y:
			c = 1
		}
	}
	return NewBool(test(c))
}

func signInject(op opcode, a, b Value) Value {
	if a.Type() == Double || b.Type() == Double {
		ab, bb := a.Bits(), b.Bits()
		const signBit = uint64(1) << 63
		var sign uint64
		switch op {
		case opSgnj:
			sign = bb & signBit
		case opSgnjn:
			sign = ^bb & signBit
		default:
			sign = (ab ^ bb) & signBit
		}
		return FromBits(ab&^signBit|sign, Double)
	}
	ab, bb := uint32(a.Bits()), uint32(b.Bits())
	const signBit = uint32(1) << 31
	var sign uint32
	switch op {
	case opSgnj:
		sign = bb & signBit
	case opSgnjn:
		sign = ^bb & signBit
	default:
		sign = (ab ^ bb) & signBit
	}
	return FromBits(uint64(ab&^signBit|sign), Float)
}
