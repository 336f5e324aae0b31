package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Bool: "kBool", Int: "kInt", UInt: "kUInt", Long: "kLong",
		ULong: "kULong", Float: "kFloat", Double: "kDouble",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestIntValueRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		return NewInt(v).Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUIntValueRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return NewUInt(v).UInt() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLongValueRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		return NewLong(v).Long() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatValueRoundTrip(t *testing.T) {
	f := func(v float32) bool {
		got := NewFloat(v).Float()
		if math.IsNaN(float64(v)) {
			return math.IsNaN(float64(got))
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoubleValueRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		got := NewDouble(v).Double()
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignExtensionIntToLong(t *testing.T) {
	if got := NewInt(-1).Long(); got != -1 {
		t.Errorf("NewInt(-1).Long() = %d, want -1", got)
	}
	if got := NewInt(-5).ULong(); got != 0xFFFFFFFFFFFFFFFB {
		t.Errorf("NewInt(-5).ULong() = %#x", got)
	}
	if got := NewUInt(0xFFFFFFFF).Long(); got != 0xFFFFFFFF {
		t.Errorf("NewUInt(max).Long() = %d, want 4294967295", got)
	}
}

func TestConvertIntToFloat(t *testing.T) {
	v := NewInt(42).Convert(Float)
	if v.Type() != Float || v.Float() != 42 {
		t.Errorf("Convert(42, Float) = %v (%v)", v.Float(), v.Type())
	}
	d := NewInt(-7).Convert(Double)
	if d.Double() != -7 {
		t.Errorf("Convert(-7, Double) = %v", d.Double())
	}
}

func TestConvertFloatToIntTruncates(t *testing.T) {
	if got := NewFloat(3.9).Convert(Int).Int(); got != 3 {
		t.Errorf("3.9 -> int = %d, want 3", got)
	}
	if got := NewFloat(-3.9).Convert(Int).Int(); got != -3 {
		t.Errorf("-3.9 -> int = %d, want -3", got)
	}
}

// TestReinterpretPreservesBits: retagging a value's bits with another
// type, as fmv.x.w and fmv.w.x do, keeps every bit.
func TestReinterpretPreservesBits(t *testing.T) {
	f := func(v uint32) bool {
		fv := FromBits(uint64(v), Float)
		return uint32(FromBits(fv.Bits(), Int).Bits()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBitsTruncatesToWidth(t *testing.T) {
	v := FromBits(0xAABBCCDD11223344, Int)
	if v.Bits() != 0x11223344 {
		t.Errorf("FromBits(Int).Bits() = %#x, want 0x11223344", v.Bits())
	}
	b := FromBits(0xFF, Bool)
	if b.Bits() != 1 {
		t.Errorf("FromBits(Bool).Bits() = %#x, want 1", b.Bits())
	}
	l := FromBits(0xAABBCCDD11223344, Long)
	if l.Bits() != 0xAABBCCDD11223344 {
		t.Errorf("FromBits(Long) truncated: %#x", l.Bits())
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-12), "-12"},
		{NewUInt(4000000000), "4000000000"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewFloat(1.5), "1.5"},
		{NewDouble(-2.25), "-2.25"},
		{NewLong(-9000000000), "-9000000000"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.v.Type(), got, c.want)
		}
	}
}

func TestPromote(t *testing.T) {
	if promote(Int, Double) != Double {
		t.Error("promote(Int, Double) != Double")
	}
	if promote(Float, Int) != Float {
		t.Error("promote(Float, Int) != Float")
	}
	if promote(Int, UInt) != UInt {
		t.Error("promote(Int, UInt) != UInt")
	}
	if promote(Bool, Bool) != Bool {
		t.Error("promote(Bool, Bool) != Bool")
	}
}

func TestTypeWidth(t *testing.T) {
	if Int.Width() != 4 || Float.Width() != 4 || Double.Width() != 8 || Long.Width() != 8 || Bool.Width() != 1 {
		t.Error("unexpected type widths")
	}
}
