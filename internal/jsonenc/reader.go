package jsonenc

import (
	"encoding/base64"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader is the pull reader behind the reflection-free decoders of the
// replies that encode themselves. It reads one JSON document front to
// back: objects, arrays, strings, integers, floats, bools and null, and it
// can hand back any other value's bytes unread (Raw). It knows only the
// documents encoding/json reads without surprise. On anything else — a
// syntax error, a type or number mismatch, an escape it does not decode, a
// key its caller does not list or lists twice — it fails, and from then on
// every read returns a zero value. A decoder reads on regardless and its
// caller asks End, which is true only when the whole document was read
// without failing; otherwise the caller decodes the document again with
// encoding/json, so a result and its error are always encoding/json's.
//
// Every string and byte slice a Reader returns is copied out of the
// document; only Raw hands back the document's own bytes.
type Reader struct {
	data []byte
	pos  int
	bad  bool
	buf  []byte // an escaped string, unescaped
}

// NewReader returns a reader at the start of data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail marks the document as one the reader's caller does not understand.
func (r *Reader) Fail() {
	r.bad = true
	r.pos = len(r.data)
}

// End reports whether the document was read whole without failing, with
// nothing but whitespace after its value.
func (r *Reader) End() bool {
	r.skipSpace()
	return !r.bad && r.pos == len(r.data)
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek returns the first byte of the next token, 0 at the end.
func (r *Reader) peek() byte {
	r.skipSpace()
	if r.pos == len(r.data) {
		return 0
	}
	return r.data[r.pos]
}

// literal consumes lit, or fails.
func (r *Reader) literal(lit string) {
	if len(r.data)-r.pos >= len(lit) && string(r.data[r.pos:r.pos+len(lit)]) == lit {
		r.pos += len(lit)
		return
	}
	r.Fail()
}

// Null consumes a null and reports whether the next value was one.
func (r *Reader) Null() bool {
	if r.peek() != 'n' {
		return false
	}
	r.literal("null")
	return !r.bad
}

// Enter opens the object ('{') or array ('[') that comes next and reports
// whether it has a first member. A null is consumed and has none: a
// struct decoded from null keeps its zero value, as encoding/json leaves
// it. Every member after the first is announced by Next.
//
//	for more := r.Enter('{'); more; more = r.Next('}') { … }
func (r *Reader) Enter(open byte) bool {
	close := byte('}')
	if open == '[' {
		close = ']'
	}
	switch r.peek() {
	case 'n':
		r.literal("null")
		return false
	case open:
		r.pos++
		if r.peek() == close {
			r.pos++
			return false
		}
		return true
	}
	r.Fail()
	return false
}

// Next reports whether another member follows the one just read, or
// consumes the container's close.
func (r *Reader) Next(close byte) bool {
	switch r.peek() {
	case ',':
		r.pos++
		return true
	case close:
		r.pos++
		return false
	}
	r.Fail()
	return false
}

// Key reads an object member's key and its colon and returns the entry of
// keys the key spells exactly, marking the entry's bit in seen. A key
// that spells no entry (another case of one included), that carries an
// escape, or whose entry seen already holds fails the reader: encoding/json
// matches keys without regard to case, ignores unknown ones and lets a
// later duplicate overwrite or merge into the earlier value. keys holds at
// most 64 entries and is searched from the first one not yet seen, so a
// document in the keys' order finds each key at the first try.
func (r *Reader) Key(keys []string, seen *uint64) string {
	raw, escaped := r.plainString()
	if escaped || r.peek() != ':' {
		r.Fail()
		return ""
	}
	r.pos++
	from := bits.TrailingZeros64(^*seen)
	for n := range keys {
		i := (from + n) % len(keys)
		if string(raw) == keys[i] {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return keys[i]
		}
	}
	r.Fail()
	return ""
}

// plainString reads a string that holds no escape and returns its bytes
// in place. At a string with an escape it reads nothing and reports the
// escape; a string with a control character or bytes that are not UTF-8
// (encoding/json substitutes U+FFFD for those) fails the reader.
func (r *Reader) plainString() (s []byte, escaped bool) {
	if r.peek() != '"' {
		r.Fail()
		return nil, false
	}
	start := r.pos + 1
	ascii := true
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			if s = r.data[start:i]; !ascii && !utf8.Valid(s) {
				r.Fail()
				return nil, false
			}
			r.pos = i + 1
			return s, false
		case c == '\\':
			return nil, true
		case c < ' ':
			r.Fail()
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.Fail()
	return nil, false
}

// String reads a string, or null as "". It decodes the escapes
// encoding/json writes — \" \\ \/ \b \f \n \r \t and \u of any code point
// outside the surrogates — and fails on a surrogate escape.
func (r *Reader) String() string {
	if r.Null() {
		return ""
	}
	return r.str()
}

// Intern reads a string as String does, but returns table's string for
// one the table holds instead of allocating a copy: decoders read the
// names of small fixed sets (registers, phases, units) through it.
func (r *Reader) Intern(table map[string]string) string {
	if r.Null() {
		return ""
	}
	return r.intern(table)
}

// str reads a string; unlike String, it does not take null for one.
func (r *Reader) str() string { return r.intern(nil) }

// intern is str with table's strings interned.
func (r *Reader) intern(table map[string]string) string {
	s, escaped := r.plainString()
	if escaped {
		s = r.escapedString()
	}
	if v, ok := table[string(s)]; ok {
		return v
	}
	return string(s)
}

// escapedString reads the string at r.pos, which holds an escape, into
// r.buf.
func (r *Reader) escapedString() []byte {
	r.buf = r.buf[:0]
	d := r.data
	for i := r.pos + 1; i < len(d); {
		switch c := d[i]; {
		case c == '"' && utf8.Valid(r.buf):
			r.pos = i + 1
			return r.buf
		case c == '"' || c < ' ':
			r.Fail()
			return nil
		case c != '\\':
			r.buf = append(r.buf, c)
			i++
		default:
			n := r.unescape(d[i:])
			if n == 0 {
				r.Fail()
				return nil
			}
			i += n
		}
	}
	r.Fail()
	return nil
}

// unescape appends the escape that e starts with to r.buf and returns its
// length, 0 for one it does not decode.
func (r *Reader) unescape(e []byte) int {
	if len(e) < 2 {
		return 0
	}
	switch c := e[1]; c {
	case '"', '\\', '/':
		r.buf = append(r.buf, c)
	case 'b':
		r.buf = append(r.buf, '\b')
	case 'f':
		r.buf = append(r.buf, '\f')
	case 'n':
		r.buf = append(r.buf, '\n')
	case 'r':
		r.buf = append(r.buf, '\r')
	case 't':
		r.buf = append(r.buf, '\t')
	case 'u':
		if len(e) < 6 {
			return 0
		}
		var cp rune
		for _, h := range e[2:6] {
			switch {
			case h >= '0' && h <= '9':
				cp = cp<<4 | rune(h-'0')
			case h >= 'a' && h <= 'f':
				cp = cp<<4 | rune(h-'a'+10)
			case h >= 'A' && h <= 'F':
				cp = cp<<4 | rune(h-'A'+10)
			default:
				return 0
			}
		}
		if utf16.IsSurrogate(cp) {
			return 0
		}
		r.buf = utf8.AppendRune(r.buf, cp)
		return 6
	default:
		return 0
	}
	return 2
}

// Bytes reads a []byte as encoding/json writes it, a standard-base64
// string, or null as nil.
func (r *Reader) Bytes() []byte {
	if r.Null() {
		return nil
	}
	s, escaped := r.plainString()
	if escaped || r.bad {
		r.Fail()
		return nil
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		r.Fail()
		return nil
	}
	return b[:n]
}

// Bool reads true or false, or null as false.
func (r *Reader) Bool() bool {
	switch r.peek() {
	case 't':
		r.literal("true")
		return !r.bad
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.Fail()
	}
	return false
}

// number reads a number as JSON spells it and returns its bytes, with
// whether it is an integer (no fraction, no exponent). A null reads as
// an integer of no digits.
func (r *Reader) number() (lit []byte, integer bool) {
	if r.Null() {
		return nil, true
	}
	d, start := r.data, r.pos
	i := start
	digits := func() bool {
		from := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		r.Fail()
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		i++
		if integer = false; !digits() {
			r.Fail()
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			r.Fail()
			return nil, false
		}
	}
	r.pos = i
	return d[start:i], integer
}

// magnitude returns the value of a run of decimal digits, failing the
// reader past max.
func (r *Reader) magnitude(digits []byte, max uint64) uint64 {
	var v uint64
	for _, c := range digits {
		d := uint64(c - '0')
		if v > (max-d)/10 {
			r.Fail()
			return 0
		}
		v = v*10 + d
	}
	return v
}

// Uint reads an unsigned integer, or null as 0. A sign, a fraction, an
// exponent or a value past 64 bits fails the reader.
func (r *Reader) Uint() uint64 {
	lit, integer := r.number()
	if !integer || len(lit) > 0 && lit[0] == '-' {
		r.Fail()
		return 0
	}
	return r.magnitude(lit, math.MaxUint64)
}

// Int reads an int, or null as 0. A fraction, an exponent or a value
// outside int fails the reader.
func (r *Reader) Int() int {
	lit, integer := r.number()
	if !integer {
		r.Fail()
		return 0
	}
	if len(lit) > 0 && lit[0] == '-' {
		return -int(r.magnitude(lit[1:], -math.MinInt))
	}
	return int(r.magnitude(lit, math.MaxInt))
}

// Float reads a float64, or null as 0; a number outside float64's range
// fails the reader.
func (r *Reader) Float() float64 {
	lit, _ := r.number()
	if len(lit) == 0 {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.Fail()
		return 0
	}
	return f
}

// Raw returns the next value's bytes in place without reading them, for
// a member decoded by reflection, which copies what it keeps. It finds
// the value's end by brackets, quotes and delimiters alone, so what it
// returns may be malformed; the reflective decoder that reads it then
// says so.
func (r *Reader) Raw() []byte {
	r.skipSpace()
	d, start := r.data, r.pos
	i, depth := start, 0
	for i < len(d) {
		c := d[i]
		if depth == 0 && i > start && strings.IndexByte(",}] \t\n\r", c) >= 0 {
			break
		}
		i++
		switch c {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			for i < len(d) && d[i] != '"' {
				if d[i] == '\\' {
					i++
				}
				i++
			}
			i++ // the closing quote
		}
		if depth <= 0 && (c == '}' || c == ']' || c == '"') {
			break
		}
	}
	if i == start || i > len(d) || depth != 0 {
		r.Fail()
		return nil
	}
	r.pos = i
	return d[start:i]
}

// Slice reads an array, each element decoded in place by elem: nil for
// null and a slice that is not nil for an empty array, as encoding/json
// decodes them.
func Slice[T any](r *Reader, elem func(*T, *Reader)) []T {
	if r.Null() {
		return nil
	}
	out := []T{}
	for more := r.Enter('['); more; more = r.Next(']') {
		out = append(out, *new(T))
		elem(&out[len(out)-1], r)
	}
	return out
}

// Map reads an object with string keys, interned from keys (Intern), each
// value returned by elem: nil for null and a map that is not nil for an
// empty object. A key given twice keeps its last value, as encoding/json
// keeps it.
func Map[V any](r *Reader, keys map[string]string, elem func(*Reader) V) map[string]V {
	if r.Null() {
		return nil
	}
	m := map[string]V{}
	for more := r.Enter('{'); more; more = r.Next('}') {
		k := r.intern(keys)
		if r.peek() != ':' {
			r.Fail()
			return m
		}
		r.pos++
		m[k] = elem(r)
	}
	return m
}

// Pointer reads an object into a new T decoded by elem, or null as nil.
func Pointer[T any](r *Reader, elem func(*T, *Reader)) *T {
	if r.Null() {
		return nil
	}
	v := new(T)
	elem(v, r)
	return v
}
