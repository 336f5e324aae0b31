package asm_test

import (
	"fmt"
	"testing"

	"riscvsim/internal/asm"
	"riscvsim/internal/compiler"
	"riscvsim/internal/config"
	"riscvsim/internal/memory"
	"riscvsim/sim"
)

// The build path of a distinct submission, one layer per benchmark: the C
// front end, the assembler and machine instantiation, on the benchmark's
// quicksort template salted the way unique_simulate salts it (an unused
// global named after its salt), so every source differs and no cache
// could answer.

// saltedQuicksort is the quicksort template with salt k appended.
func saltedQuicksort(t testing.TB, k int) string {
	return fmt.Sprintf("%s\nint salt_%d = %d;\n", quicksortC(t), k, k)
}

// BenchmarkBuildCompile compiles the salted quicksort at -O0.
func BenchmarkBuildCompile(b *testing.B) {
	src := saltedQuicksort(b, 1)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := compiler.Compile(src, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAssemble assembles the salted quicksort's -O0 output into
// a fresh memory.
func BenchmarkBuildAssemble(b *testing.B) {
	src := compileC(b, saltedQuicksort(b, 1), 0)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := asm.Assemble(src, pinSet, pinRegs, memory.New(memory.DefaultConfig())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildNewMachine instantiates a machine of the assembled salted
// quicksort -O0 on the default preset.
func BenchmarkBuildNewMachine(b *testing.B) {
	p, err := sim.Assemble(compileC(b, saltedQuicksort(b, 1), 0), memory.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := p.NewMachine(cfg, ""); err != nil {
			b.Fatal(err)
		}
	}
}
