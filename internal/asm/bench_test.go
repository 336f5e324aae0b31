package asm

import (
	"strings"
	"testing"

	"riscvsim/internal/memory"
)

// bigBody is a 4 MiB source of one repeated instruction, the size of the
// largest request body the server accepts.
var bigBody = strings.Repeat("addi x1, x1, 1\n", 4<<20/len("addi x1, x1, 1\n"))

// BenchmarkLexBigBody lexes bigBody line by line, as Parse does.
func BenchmarkLexBigBody(b *testing.B) {
	b.SetBytes(int64(len(bigBody)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lx, n := newLexer(bigBody), 0
		var toks []Token
		for toks = lx.next(toks); len(toks) > 0; toks = lx.next(toks) {
			n += len(toks)
		}
		if n != 7*strings.Count(bigBody, "\n") {
			b.Fatalf("%d tokens", n)
		}
	}
}

// BenchmarkAssembleBigBody assembles bigBody.
func BenchmarkAssembleBigBody(b *testing.B) {
	b.SetBytes(int64(len(bigBody)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mem := memory.New(memory.DefaultConfig())
		if _, err := Assemble(bigBody, testSet, testRegs, mem); err != nil {
			b.Fatal(err)
		}
	}
}
