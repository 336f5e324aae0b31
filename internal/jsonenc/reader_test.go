package jsonenc

import (
	"encoding/json"
	"reflect"
	"testing"
)

// agree reads doc with read and holds the result to encoding/json's: a
// document the reader reads whole must decode, by reflection, to an equal
// value without error. It reports whether the reader read doc whole.
func agree[T any](t *testing.T, doc string, read func(*Reader) T) bool {
	t.Helper()
	r := NewReader([]byte(doc))
	got := read(&r)
	ok := r.End()
	var want T
	err := json.Unmarshal([]byte(doc), &want)
	if ok && (err != nil || !reflect.DeepEqual(got, want)) {
		t.Errorf("%q read as %#v, encoding/json gives %#v (%v)", doc, got, want, err)
	}
	return ok
}

// TestReaderStrings: every string String writes reads back whole as
// encoding/json reads it, and the escapes the reader does not decode, the
// control characters and the bytes that are not UTF-8 make it fail.
func TestReaderStrings(t *testing.T) {
	for b := 0; b < 256; b++ {
		for _, s := range []string{string([]byte{byte(b)}), string([]byte{'a', byte(b), 'z'}), " " + string(rune(b))} {
			if doc := String(nil, s); !agree(t, string(doc), (*Reader).String) {
				t.Errorf("%s, written by String, was not read whole", doc)
			}
		}
	}
	for doc, whole := range map[string]bool{
		`"plain"`: true, `""`: true, `null`: true, `"ünïcode 文字 🙂"`: true,
		`"\"\\\/\b\f\n\r\t"`: true, `"\u00e9\u0000\u2028\ufffd"`: true, `"mixed < ü \n"`: true,
		`"\ud83d\ude00"`: false, `"\ud800"`: false, `"\x"`: false, `"\u12"`: false, `"\u12g4"`: false,
		"\"raw\ttab\"": false, "\"bad \xff\"": false, "\"esc \\n bad \xff\"": false,
		`"open`: false, `"\`: false, `'single'`: false, `1`: false, `nul`: false, `"a" "b"`: false,
	} {
		if got := agree(t, doc, (*Reader).String); got != whole {
			t.Errorf("%q: read whole %v, want %v", doc, got, whole)
		}
	}
}

// TestReaderNumbers: integers, unsigned integers and floats read as
// encoding/json reads them into int, uint64 and float64; a literal
// outside JSON's grammar or the type's range makes the reader fail.
func TestReaderNumbers(t *testing.T) {
	lits := []string{
		"0", "-0", "1", "-1", "42", "01", "-01", "1.", "1.5", "-1.5", ".5", "+1", "-", "1e3", "1E+3", "1e-3",
		"1e", "1e+", "0.0", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616", "99999999999999999999",
		"1e400", "-1e400", "4.9e-324", "1e-400", "null", "true", `"1"`, "1 2", " 7 ", "0x10", "1_000",
	}
	for _, lit := range lits {
		agree(t, lit, (*Reader).Int)
		agree(t, lit, (*Reader).Uint)
		agree(t, lit, (*Reader).Float)
	}
	for lit, whole := range map[string][3]bool{ // Int, Uint, Float
		"42":                   {true, true, true},
		"-1":                   {true, false, true},
		"1.5":                  {false, false, true},
		"1e3":                  {false, false, true},
		"18446744073709551615": {false, true, true},
		"-9223372036854775808": {true, false, true},
		"null":                 {true, true, true},
		"01":                   {false, false, false},
		"1e400":                {false, false, false},
	} {
		r := [3]Reader{NewReader([]byte(lit)), NewReader([]byte(lit)), NewReader([]byte(lit))}
		r[0].Int()
		r[1].Uint()
		r[2].Float()
		if got := [3]bool{r[0].End(), r[1].End(), r[2].End()}; got != whole {
			t.Errorf("%s read whole as int, uint, float: %v, want %v", lit, got, whole)
		}
	}
}

type sample struct {
	Name  string            `json:"name"`
	N     int               `json:"n"`
	On    bool              `json:"on"`
	Data  []byte            `json:"data"`
	List  []sample          `json:"list"`
	Mix   map[string]uint64 `json:"mix"`
	Inner *sample           `json:"inner"`
	Other json.RawMessage   `json:"other"`
}

var sampleKeys = []string{"name", "n", "on", "data", "list", "mix", "inner", "other"}

// sampleNames interns some of the names and keys the documents use.
var sampleNames = map[string]string{"a": "a", "é": "é", "deep": "deep"}

func (s *sample) read(r *Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(sampleKeys, &seen) {
		case "name":
			s.Name = r.Intern(sampleNames)
		case "n":
			s.N = r.Int()
		case "on":
			s.On = r.Bool()
		case "data":
			s.Data = r.Bytes()
		case "list":
			s.List = Slice(r, (*sample).read)
		case "mix":
			s.Mix = Map(r, sampleNames, (*Reader).Uint)
		case "inner":
			s.Inner = Pointer(r, (*sample).read)
		case "other":
			if raw := r.Raw(); raw != nil {
				s.Other = append(json.RawMessage(nil), raw...)
			}
		}
	}
}

// TestReaderDocuments: objects, arrays, maps, pointers, base64 and raw
// members read as encoding/json reads them — null against empty included
// — and the documents encoding/json reads differently from the keys'
// plain spelling (another case, a duplicate, an unknown key) or not at
// all make the reader fail.
func TestReaderDocuments(t *testing.T) {
	readSample := func(r *Reader) sample {
		var s sample
		s.read(r)
		return s
	}
	for doc, whole := range map[string]bool{
		`{}`:   true,
		`null`: true,
		` { "name" : "a" , "n" : -3 , "on" : true } `:                             true,
		`{"list":null,"mix":null,"inner":null,"data":null}`:                       true,
		`{"list":[],"mix":{},"inner":{},"data":""}`:                               true,
		`{"list":[{"n":1},{"list":[{"name":"deep"}]}],"mix":{"a":1,"b":2,"é":3}}`: true,
		`{"name":"\u0061","mix":{"\u00e9":1,"z":2}}`:                              true,
		`{"data":"AAECAw==","inner":{"on":false,"data":"/w=="}}`:                  true,
		`{"other":{"a":[1,"]}",{"b":null}]},"n":1}`:                               true,
		`{"other":"x,y}","n":1}`:                                                  true,
		`{"other":-1.5e3}`:                                                        true,
		`{"mix":{"a":1,"a":2}}`:                                                   true,
		`{"Name":"a"}`:                                                            false,
		`{"name":"a","name":"b"}`:                                                 false,
		`{"unknown":1}`:                                                           false,
		`{"n\u0061me":"a"}`:                                                       false,
		`{"name":"a",}`:                                                           false,
		`{"list":[1,]}`:                                                           false,
		`{"list":[{}]`:                                                            false,
		`{"n":1}x`:                                                                false,
		`{"n":1}{}`:                                                               false,
		`{"data":"AAE"}`:                                                          false,
		`{"mix":{null:1}}`:                                                        false,
		`{"mix":{"a":-1}}`:                                                        false,
		`{"other":}`:                                                              false,
		`{"other":"open}`:                                                         false,
		`[]`:                                                                      false,
		``:                                                                        false,
		`{"inner":{"inner":{"inner":{"n":1.5}}}}`:                                 false,
	} {
		if got := agree(t, doc, readSample); got != whole {
			t.Errorf("%s: read whole %v, want %v", doc, got, whole)
		}
	}
}

// TestReaderIntern: a string the table holds reads as the table's own
// string, escaped or not, without allocating; one it does not hold, and
// null, read as String reads them.
func TestReaderIntern(t *testing.T) {
	for doc, want := range map[string]string{`"a"`: "a", `"\u0061"`: "a", `"deep"`: "deep", `"b"`: "b", `null`: ""} {
		r := NewReader([]byte(doc))
		if got := r.Intern(sampleNames); got != want || !r.End() {
			t.Errorf("%s: Intern read %q (whole %v), want %q", doc, got, r.End(), want)
		}
	}
	doc := []byte(`"deep"`)
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(doc)
		r.Intern(sampleNames)
	}); n != 0 {
		t.Errorf("an interned string costs %v allocations", n)
	}
}
