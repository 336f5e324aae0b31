// Package expr implements the simulator's instruction interpreter: a small
// stack-based evaluator for postfix expressions such as
//
//	\rs1 \rs2 + \rd =
//
// which is how the paper (Listing 1) defines instruction semantics as data.
// An expression may produce two kinds of output: the value left on the stack
// after evaluation (used for jump targets and branch conditions) and side
// effects performed by the `=` operator, which writes a value into a
// register through the Env interface.
package expr

import (
	"fmt"
	"math"
	"strconv"
)

// Type identifies the data type carried by a Value. The names mirror the
// kInt/kFloat tags used by the paper's JSON instruction definitions.
type Type uint8

// The supported value types. Registers are 64-bit containers (paper §III-B),
// so every type is stored in a uint64 bit pattern.
const (
	Bool   Type = iota // 0 or 1
	Int                // 32-bit signed
	UInt               // 32-bit unsigned
	Long               // 64-bit signed
	ULong              // 64-bit unsigned
	Float              // IEEE-754 binary32
	Double             // IEEE-754 binary64
)

var typeNames = [...]string{"kBool", "kInt", "kUInt", "kLong", "kULong", "kFloat", "kDouble"}

// String returns the paper-style kXxx name of the type.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("kType(%d)", uint8(t))
}

// ParseType converts a paper-style type tag ("kInt", "kFloat", ...) back to
// a Type. It is the inverse of String and is used by the JSON ISA loader.
func ParseType(s string) (Type, error) {
	for i, n := range typeNames {
		if n == s {
			return Type(i), nil
		}
	}
	return Int, fmt.Errorf("expr: unknown type tag %q", s)
}

// IsFloat reports whether the type is a floating-point type.
func (t Type) IsFloat() bool { return t == Float || t == Double }

// Width returns the operand width in bytes.
func (t Type) Width() int {
	switch t {
	case Bool:
		return 1
	case Int, UInt, Float:
		return 4
	default:
		return 8
	}
}

// Value is a typed 64-bit register/operand value. Registers are represented
// as 64-bit arrays even though the simulator currently supports only 32-bit
// instructions (paper §III-B); the Type tag selects the interpretation.
type Value struct {
	bits uint64
	typ  Type
}

// NewInt returns a kInt value.
func NewInt(v int32) Value { return Value{bits: uint64(uint32(v)), typ: Int} }

// NewUInt returns a kUInt value.
func NewUInt(v uint32) Value { return Value{bits: uint64(v), typ: UInt} }

// NewLong returns a kLong value.
func NewLong(v int64) Value { return Value{bits: uint64(v), typ: Long} }

// NewULong returns a kULong value.
func NewULong(v uint64) Value { return Value{bits: v, typ: ULong} }

// NewFloat returns a kFloat value.
func NewFloat(v float32) Value { return Value{bits: uint64(math.Float32bits(v)), typ: Float} }

// NewDouble returns a kDouble value.
func NewDouble(v float64) Value { return Value{bits: math.Float64bits(v), typ: Double} }

// NewBool returns a kBool value.
func NewBool(v bool) Value {
	if v {
		return Value{bits: 1, typ: Bool}
	}
	return Value{bits: 0, typ: Bool}
}

// FromBits builds a value of type t directly from a raw bit pattern,
// truncating to the type's width. Used for fmv.x.w-style bit moves and for
// register file storage.
func FromBits(bits uint64, t Type) Value {
	switch t.Width() {
	case 1:
		bits &= 1
	case 4:
		bits &= 0xFFFFFFFF
	}
	return Value{bits: bits, typ: t}
}

// Bits returns the raw 64-bit pattern.
func (v Value) Bits() uint64 { return v.bits }

// Type returns the value's type tag.
func (v Value) Type() Type { return v.typ }

// Int returns the value interpreted as a 32-bit signed integer, converting
// from the value's own type.
func (v Value) Int() int32 {
	switch v.typ {
	case Float:
		return int32(v.Float())
	case Double:
		return int32(v.Double())
	case Long, ULong:
		return int32(v.bits)
	default:
		return int32(uint32(v.bits))
	}
}

// UInt returns the value interpreted as a 32-bit unsigned integer.
func (v Value) UInt() uint32 {
	switch v.typ {
	case Float:
		return uint32(v.Float())
	case Double:
		return uint32(v.Double())
	default:
		return uint32(v.bits)
	}
}

// Long returns the value converted to a 64-bit signed integer.
func (v Value) Long() int64 {
	switch v.typ {
	case Float:
		return int64(v.Float())
	case Double:
		return int64(v.Double())
	case Int:
		return int64(int32(uint32(v.bits))) // sign-extend
	case UInt, Bool:
		return int64(v.bits)
	default:
		return int64(v.bits)
	}
}

// ULong returns the value converted to a 64-bit unsigned integer.
func (v Value) ULong() uint64 {
	switch v.typ {
	case Float:
		return uint64(v.Float())
	case Double:
		return uint64(v.Double())
	case Int:
		return uint64(int64(int32(uint32(v.bits))))
	default:
		return v.bits
	}
}

// Float returns the value converted to float32.
func (v Value) Float() float32 {
	switch v.typ {
	case Float:
		return math.Float32frombits(uint32(v.bits))
	case Double:
		return float32(math.Float64frombits(v.bits))
	case Int:
		return float32(int32(uint32(v.bits)))
	case Long:
		return float32(int64(v.bits))
	default:
		return float32(v.bits)
	}
}

// Double returns the value converted to float64.
func (v Value) Double() float64 {
	switch v.typ {
	case Float:
		return float64(math.Float32frombits(uint32(v.bits)))
	case Double:
		return math.Float64frombits(v.bits)
	case Int:
		return float64(int32(uint32(v.bits)))
	case Long:
		return float64(int64(v.bits))
	default:
		return float64(v.bits)
	}
}

// Bool returns the value interpreted as a truth value (non-zero = true).
func (v Value) Bool() bool { return v.bits != 0 }

// Convert returns v converted (value-preserving, C-style) to type t.
func (v Value) Convert(t Type) Value {
	if v.typ == t {
		return v
	}
	switch t {
	case Bool:
		return NewBool(v.Bool())
	case Int:
		return NewInt(v.Int())
	case UInt:
		return NewUInt(v.UInt())
	case Long:
		return NewLong(v.Long())
	case ULong:
		return NewULong(v.ULong())
	case Float:
		return NewFloat(v.Float())
	default:
		return NewDouble(v.Double())
	}
}

// Reinterpret returns the same bit pattern tagged with a different type
// (fmv.x.w / fmv.w.x semantics). No numeric conversion is performed.
func (v Value) Reinterpret(t Type) Value { return FromBits(v.bits, t) }

// String renders the value according to its type, the same way the GUI's
// register panes display the "intended value" instead of raw bits.
func (v Value) String() string {
	if v.bits == 0 && v.typ != Bool {
		return "0" // most of a register file, most of the time
	}
	switch v.typ {
	case Bool:
		if v.bits != 0 {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(int64(int32(uint32(v.bits))), 10)
	case UInt:
		return strconv.FormatUint(uint64(uint32(v.bits)), 10)
	case Long:
		return strconv.FormatInt(int64(v.bits), 10)
	case ULong:
		return strconv.FormatUint(v.bits, 10)
	case Float:
		return strconv.FormatFloat(float64(v.Float()), 'g', -1, 32)
	default:
		return strconv.FormatFloat(v.Double(), 'g', -1, 64)
	}
}

// promote returns the common type of two operands following C-like rules:
// the higher-ranked type wins (Bool < Int < UInt < Long < ULong < Float <
// Double).
func promote(a, b Type) Type {
	if a >= b {
		return a
	}
	return b
}
