// Package jsonenc holds the JSON primitives behind the reflection-free
// encoders and decoders of the replies (core.State, the views it is made
// of, the statistics report). The append-style encoders each append to dst
// exactly the bytes encoding/json writes for the same value with its
// default HTML escaping, so a hand-written encoder and the reflective one
// stay byte-identical; Reader (reader.go) reads those documents back.
package jsonenc

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// String appends s as a JSON string: quotes, backslashes and control
// characters escaped, '<', '>' and '&' as \u00XX, U+2028 and U+2029 as
// \u202X, and every invalid UTF-8 byte as \ufffd.
func String(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Bytes appends b the way encoding/json writes a []byte: a quoted
// standard-base64 string, or null for a nil slice.
func Bytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// Float appends f as encoding/json writes a float64: the shortest text
// that reads back as f, in exponent form below 1e-6 and from 1e21 on
// (magnitudes), with a one-digit negative exponent unpadded. f must be
// finite; UnsupportedFloat says when it is not.
func Float(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 is written e-7
		dst = dst[:n-1]
	}
	return dst
}

// UnsupportedFloat returns the error encoding/json fails with on f, a NaN
// or an infinity, or nil for a finite f.
func UnsupportedFloat(f float64) error {
	if !math.IsNaN(f) && !math.IsInf(f, 0) {
		return nil
	}
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// Value appends v as encoding/json encodes it by reflection: the way in
// for the sub-documents that keep no hand-written encoder.
func Value(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return dst, err
	}
	out := buf.Bytes()
	return out[:len(out)-1], nil // Encode ends the document with a newline
}
