package ckpt

import (
	"bytes"
	"errors"
	"testing"

	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U64(0)
	w.U64(1<<63 + 17)
	w.I64(-42)
	w.Int(12345)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Section(SecCore)
	w.Value(expr.NewDouble(3.25))
	w.Exception(nil)
	w.Exception(&fault.Exception{Kind: fault.DivisionByZero, Msg: "div", Cycle: 9, PC: 4})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<63+17 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 12345 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Bytes(10); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(10); got != "hello" {
		t.Errorf("String = %q", got)
	}
	r.Section(SecCore)
	if v := r.Value(); v.Double() != 3.25 || v.Type() != expr.Double {
		t.Errorf("Value = %v", v)
	}
	if e := r.Exception(); e != nil {
		t.Errorf("Exception = %v, want nil", e)
	}
	e := r.Exception()
	if e == nil || e.Kind != fault.DivisionByZero || e.Msg != "div" || e.Cycle != 9 || e.PC != 4 {
		t.Errorf("Exception = %+v", e)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(make([]byte, 100))
	full := buf.Bytes()

	for _, cut := range []int{0, 1, 50} {
		r := NewReader(bytes.NewReader(full[:cut]))
		r.Bytes(200)
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, r.Err())
		}
	}
}

func TestSectionMismatchIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section(SecCache)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Section(SecCore)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestLengthBound(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 40) // absurd length prefix
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Bytes(-1)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", r.Err())
	}
}

func TestErrorsAreSticky(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	_ = r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("expected error on empty stream")
	}
	_ = r.Int()
	_ = r.Bytes(4)
	if r.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, r.Err())
	}
}

// stream frames body as a checkpoint stream: header, body, footer and
// trailer.
func stream(body []byte) []byte {
	var buf bytes.Buffer
	sum := NewSummer(&buf)
	w := NewWriter(sum)
	w.Header()
	w.Raw(body)
	w.Footer()
	if err := sum.WriteTrailer(); err != nil || w.Err() != nil {
		panic("writing to a buffer failed")
	}
	return buf.Bytes()
}

func TestOpenReadOrder(t *testing.T) {
	good := stream([]byte{7, 8, 9})
	r, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	var body [3]byte
	r.Raw(body[:])
	r.End()
	if err := r.Err(); err != nil || body != [3]byte{7, 8, 9} {
		t.Fatalf("body %v, err %v", body, err)
	}

	flip := func(i int, x byte) []byte {
		b := bytes.Clone(good)
		b[i] ^= x
		return b
	}
	v1 := bytes.Clone(good)
	v1[len(Magic)] = 1
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"magic prefix", []byte("RV"), ErrTruncated},
		{"bad magic", flip(0, 0x41), ErrBadMagic},
		{"short bad magic", []byte("XY"), ErrBadMagic},
		{"no version", []byte(Magic), ErrTruncated},
		{"version 1", v1, ErrVersion},
		{"version overflow", append([]byte(Magic), bytes.Repeat([]byte{0xFF}, 11)...), ErrVersion},
		{"torn trailer", good[:len(good)-1], ErrTruncated},
		{"flipped footer", flip(len(good)-TrailerLen-1, 0x01), ErrTruncated},
		{"flipped body", flip(len(Magic)+1, 0x01), ErrCorrupt},
		{"flipped trailer", flip(len(good)-1, 0x80), ErrCorrupt},
	} {
		if _, err := Open(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestVerifiedBodyIsExact: once Open has checked the CRC, a length that
// runs into the footer and bytes left over are both corruption.
func TestVerifiedBodyIsExact(t *testing.T) {
	r, _ := Open(stream([]byte{5, 1}))
	r.Bytes(10) // claims 5 bytes, has 1
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("overlong length: err = %v, want ErrCorrupt", r.Err())
	}
	r, _ = Open(stream([]byte{1, 2}))
	r.Byte()
	r.End()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("leftover byte: err = %v, want ErrCorrupt", r.Err())
	}
}

// TestNonCanonicalEncodingsAreCorrupt: a boolean other than 0 or 1 and a
// varint longer than its shortest form would re-encode to other bytes.
func TestNonCanonicalEncodingsAreCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"padded zero", []byte{0x80, 0x00}, func(r *Reader) { r.U64() }},
		{"padded int", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Int() }},
		{"11-byte varint", bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.U64() }},
		{"10th byte > 1", append(bytes.Repeat([]byte{0xFF}, 9), 0x02), func(r *Reader) { r.U64() }},
	} {
		r := NewReader(bytes.NewReader(tc.data))
		tc.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, r.Err())
		}
	}
	r := NewReader(bytes.NewReader(append(bytes.Repeat([]byte{0xFF}, 9), 0x01)))
	if got := r.U64(); got != 1<<64-1 || r.Err() != nil {
		t.Errorf("max varint = %x, err %v", got, r.Err())
	}
}
