package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// pinnedTextHashes are the SHA-256 digests of Compile's output for the
// benchmark's quicksort template at each optimization level: the assembly
// text, then the line map. Checkpoints embed the compiled text and the
// server's Program cache keys on it, so a change here is a change to both.
var pinnedTextHashes = [4]string{
	"32028e6947857e4410225e0404b0afff9b88011a1e158b48938f2782e5fcedad",
	"57a5f6ce94b2b262ce276f13c33fe95cde4991bbbdbee144e307e7dc21a3e640",
	"fd028381dbadc97c5146aebe831548266c97f82f24f5d8035b65af7c77e92a9b",
	"fd028381dbadc97c5146aebe831548266c97f82f24f5d8035b65af7c77e92a9b",
}

func TestCompiledTextPinned(t *testing.T) {
	src, err := os.ReadFile("../../bench/testdata/quicksort.c")
	if err != nil {
		t.Fatal(err)
	}
	for opt, want := range pinnedTextHashes {
		res, err := Compile(string(src), opt)
		if err != nil {
			t.Fatalf("-O%d: %v", opt, err)
		}
		h := sha256.New()
		h.Write([]byte(res.Assembly))
		fmt.Fprint(h, res.LineMap)
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("-O%d: compiled text hash %s, pinned %q", opt, got, want)
		}
	}
}

// TestPunctLenLongestMatch holds the punctuator switch to the rule it
// replaces: the longest entry of the punctuator list a text starts with,
// tried on every text of up to three bytes from the punctuators' bytes
// and a few others.
func TestPunctLenLongestMatch(t *testing.T) {
	puncts := []string{
		"<<=", ">>=", "...",
		"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
		"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
		"(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
	}
	want := func(s string) int {
		for _, p := range puncts {
			if strings.HasPrefix(s, p) {
				return len(p)
			}
		}
		return 0
	}
	alphabet := "+-*/%=<>!~&|^(){}[];,?:.a0 #@\"'\\\x00"
	for _, a := range alphabet {
		for _, b := range " " + alphabet {
			for _, c := range " " + alphabet {
				for _, s := range []string{string(a), string(a) + string(b), string(a) + string(b) + string(c)} {
					if got := punctLen(s); got != want(s) {
						t.Fatalf("punctLen(%q) = %d, want %d", s, got, want(s))
					}
				}
			}
		}
	}
}

// TestAppendfMatchesSprintf: the code generator's formatter spells every
// argument it takes as fmt.Sprintf does.
func TestAppendfMatchesSprintf(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []any
	}{
		{"addi sp, sp, -%d", []any{16}},
		{"%s %s, %d(s0)", []any{"sw", "a0", -20}},
		{"li %s, %d", []any{"t0", int64(-2147483648)}},
		{".float %g", []any{3.25}},
		{".double %g", []any{1e21}},
		{".double %g", []any{-1.5e-7}},
		{"j %s", []any{".Lret12"}},
		{"100%% %d", []any{int64(0)}},
		{"no verbs", nil},
	} {
		if got, want := string(appendf(nil, c.format, c.args...)), fmt.Sprintf(c.format, c.args...); got != want {
			t.Errorf("appendf(%q, %v) = %q, fmt.Sprintf %q", c.format, c.args, got, want)
		}
	}
}
