package asm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"riscvsim/internal/asm"
	"riscvsim/internal/compiler"
	"riscvsim/internal/isa"
	"riscvsim/internal/loadgen"
	"riscvsim/internal/memory"
	"riscvsim/internal/workload"
)

var (
	pinSet  = isa.RV32IMF()
	pinRegs = isa.NewRegisterFile()
)

// quicksortC is the benchmark's C template, read where the benchmark
// keeps it.
func quicksortC(t testing.TB) string {
	t.Helper()
	b, err := os.ReadFile("../../bench/testdata/quicksort.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func compileC(t testing.TB, src string, opt int) string {
	t.Helper()
	res, err := compiler.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile -O%d: %v", opt, err)
	}
	return res.Assembly
}

// pinnedSources are the assembly texts whose Programs are pinned: the
// corpus, the benchmark's two assembly templates and quicksort at every
// optimization level.
func pinnedSources(t testing.TB) map[string]string {
	srcs := map[string]string{
		"programA": loadgen.ProgramA,
		"programB": loadgen.ProgramB,
	}
	for _, w := range workload.Corpus() {
		srcs[w.Name] = w.Source
	}
	qs := quicksortC(t)
	for opt := 0; opt <= 3; opt++ {
		srcs[fmt.Sprintf("quicksort-O%d", opt)] = compileC(t, qs, opt)
	}
	return srcs
}

// dumpProgram renders everything an assembled Program carries in a
// canonical text: per instruction its mnemonic, index, line and operands,
// then the symbol table in name order and the data image.
func dumpProgram(p *asm.Program) string {
	var b strings.Builder
	for _, in := range p.Instructions {
		fmt.Fprintf(&b, "%s %d %d", in.Desc.Name, in.Index, in.Line)
		for _, op := range in.Ops {
			fmt.Fprintf(&b, " [%s %d %d %q]", op.Arg.Name, op.Reg, op.Val, op.Text)
		}
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "sym %s=%d\n", name, p.Symbols[name])
	}
	for _, d := range p.Data {
		fmt.Fprintf(&b, "data %q align=%d skip=%d line=%d addr=%d", d.Labels, d.Align, d.Skip, d.Line, d.Addr)
		for _, e := range d.Elems {
			fmt.Fprintf(&b, " %d:%d:%t:%g", e.Size, e.Val, e.Float, e.FVal)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// pinnedProgramHashes are the SHA-256 digests of dumpProgram for every
// pinned source. The assembler's output is a contract with every engine
// and every checkpoint; a change here is a change to all of them.
var pinnedProgramHashes = map[string]string{
	"axpy-stream":    "a0fb383b4af67bf193c544aa30f83b144099b13316e5f1873a7a73b9fe043e86",
	"binsearch":      "4e0690b12a4575c10ffd376598cdf3e3ef202fe99b8f4df7bab01c8dc7b88556",
	"bitmix":         "4a5692d876089e208124d36a3276b3fffd75962ec44d7865b2ea8a8ddda57ef1",
	"fib-recursive":  "af30f3a1b70c057124a46a863b7fdbfde7042671e9f76121a9c8ba840626ea85",
	"fp-horner":      "d7d4c316b98661cfed03b280b9b474bacb98284fab4f3f27e6208802cd48ff0b",
	"gcd-euclid":     "a069b0b4c5d35cbd0f7b88aee36ea0c88758265e6f4668df91e4251f2209481b",
	"list-walk":      "3e5dbe4c69231a2a8493465181d94567a39087bb68c491917cb917d1c83e913a",
	"matmul-blocked": "34df1f8b45c1340b506b4e492f868abf40cbf324473867918bda7eed5278161c",
	"memcpy-stream":  "223fde58ee6857c3f922580176c769fea71d23fe3dd61339c6591f67df75473e",
	"memset-store":   "05b07479280c1f8c869b0068a437b05654bf0aa81ae1595752e9fb7bbe4b9982",
	"sort-insertion": "0bacb7be499eb5a90b61aa41161ced7157f4174f645b9e94b7c18cc4776d89e5",
	"stride-thrash":  "737a3cde199387615649859b8aec08adfd0f1805b25f20a2c8725659ca3eb1c5",
	"vcall-dispatch": "a5612cbce7545a97d5bafddb7520d111243cf5a958e7e0a39acaf59330fcec2e",
	"programA":       "bc154d2aed9d680937ba1782cb126ab3aea50fceb5cad4f3a3afb15b3f6331ad",
	"programB":       "37dab5a6502cfa52f3e82eb4cff7ff972a78dd8e2e1bdcf83bf1e62760491ae3",
	"quicksort-O0":   "e6d88004b2ff7c333e0984236f70d743de4c3d5ec2463857494c9ecd66cd38ed",
	"quicksort-O1":   "d60c23880fea2fb6d0ed4a4ece78d4ba63e1b33b40a1d16cd922822195f59994",
	"quicksort-O2":   "192536415d06e4fa769d3a95a1dc272250966a60edd9c762364aeae92866b3e0",
	"quicksort-O3":   "192536415d06e4fa769d3a95a1dc272250966a60edd9c762364aeae92866b3e0",
}

func TestProgramDumpPinned(t *testing.T) {
	srcs := pinnedSources(t)
	if len(srcs) != len(pinnedProgramHashes) {
		t.Errorf("%d pinned sources, %d pinned hashes", len(srcs), len(pinnedProgramHashes))
	}
	for name, src := range srcs {
		prog, err := asm.Assemble(src, pinSet, pinRegs, memory.New(memory.DefaultConfig()))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sum := sha256.Sum256([]byte(dumpProgram(prog)))
		if got := hex.EncodeToString(sum[:]); got != pinnedProgramHashes[name] {
			t.Errorf("%s: Program dump hash %s, pinned %q", name, got, pinnedProgramHashes[name])
		}
	}
}

// TestRepeatsMatchDistinctLines: Parse reuses the parse of a repeated
// line, so a source must assemble exactly as its copy with every line
// made distinct by a trailing comment, which nothing can reuse: to the
// same Program or the same diagnostics. The sources are the pinned ones,
// where compiled code repeats most of its lines, and the hostile and
// repeat cases of errors_test.go without quotes (a comment appended to
// an unterminated literal would change it).
func TestRepeatsMatchDistinctLines(t *testing.T) {
	srcs := pinnedSources(t)
	for i, src := range asm.HostileSources() {
		if !strings.ContainsAny(src, `"'`) {
			srcs[fmt.Sprintf("case %d", i)] = src
		}
	}
	outcome := func(src string) string {
		prog, err := asm.Assemble(src, pinSet, pinRegs, memory.New(memory.DefaultConfig()))
		if err != nil {
			return err.Error()
		}
		return dumpProgram(prog)
	}
	for name, src := range srcs {
		lines := strings.Split(src, "\n")
		for i := range lines[:len(lines)-1] { // the text after the last newline ends the source
			lines[i] += " # " + strconv.Itoa(i)
		}
		if got, want := outcome(src), outcome(strings.Join(lines, "\n")); got != want {
			t.Errorf("%s: repeated lines assemble differently from distinct ones:\n%.300s\nvs\n%.300s", name, got, want)
		}
	}
}

// assembleBytesPerSourceByte is the heap, in bytes per source byte, that
// one Assemble of src allocates: the Program, its operand expressions
// and the image pages it writes. The memories are built beforehand.
func assembleBytesPerSourceByte(t testing.TB, src string) float64 {
	const runs = 20
	mems := make([]*memory.Main, runs)
	for i := range mems {
		mems[i] = memory.New(memory.DefaultConfig())
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, mem := range mems {
		if _, err := asm.Assemble(src, pinSet, pinRegs, mem); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
}

// TestAssembleAllocationPerSourceByte holds the build path to what the
// Program keeps. Compiled quicksort -O0 (4,735 bytes) allocates 7.9 bytes
// per source byte; an Instruction and an operand slice allocated per line,
// each line parsed again however often it repeats, took it to 16.7, and a
// whole-source token array and per-line operand groups to 84.4.
func TestAssembleAllocationPerSourceByte(t *testing.T) {
	const limit = 10
	src := compileC(t, quicksortC(t), 0)
	if got := assembleBytesPerSourceByte(t, src); got > limit {
		t.Errorf("assembling %d bytes of quicksort -O0 allocates %.1f bytes per source byte, limit %d", len(src), got, limit)
	}
}
