package jsonenc

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStringMatchesEncodingJSON: every single byte, every byte after a
// multi-byte lead, the separators encoding/json escapes, and random byte
// strings come out as json.Marshal writes them.
func TestStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), string([]byte{'a', byte(b), 'z'}),
			string([]byte{0xe2, byte(b)}), string([]byte{0xe2, 0x80, byte(b)}), string([]byte{0xf0, 0x9f, byte(b), 0x82}))
	}
	cases = append(cases, "", "plain", `q"uote`, `back\slash`, "<>&", "\u2028\u2029", "\ufffd", "\xff\xfe", "héllo 文字 🙂")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		if got, want := String(nil, s), marshal(t, s); !bytes.Equal(got, want) {
			t.Errorf("String(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
	if got := String([]byte("x:"), "v"); string(got) != `x:"v"` {
		t.Errorf("String does not append: %s", got)
	}
}

func TestBytesMatchesEncodingJSON(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0}, {1, 2}, {1, 2, 3}, bytes.Repeat([]byte{0xAB, 0x00, 0xFF}, 30)} {
		if got, want := Bytes(nil, b), marshal(t, b); !bytes.Equal(got, want) {
			t.Errorf("Bytes(%v) = %s, encoding/json writes %s", b, got, want)
		}
	}
}

func TestValueMatchesEncodingJSON(t *testing.T) {
	type doc struct {
		F float64           `json:"f"`
		M map[string]uint64 `json:"m,omitempty"`
		S string            `json:"s"`
	}
	for _, v := range []any{nil, (*doc)(nil), &doc{F: 0.1, M: map[string]uint64{"b": 2, "a": 1}, S: "<&>\u2028"}, []doc{}} {
		got, err := Value([]byte("k:"), v)
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("k:"), marshal(t, v)...); !bytes.Equal(got, want) {
			t.Errorf("Value(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
	if _, err := Value(nil, func() {}); err == nil {
		t.Error("Value encoded a func")
	}
}
