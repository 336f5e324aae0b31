package asm

import (
	"strings"
	"testing"

	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

var (
	testSet  = isa.RV32IMF()
	testRegs = isa.NewRegisterFile()
)

func assemble(t *testing.T, src string) (*Program, *memory.Main) {
	t.Helper()
	mem := memory.New(memory.Config{Size: 64 * 1024, LoadLatency: 1, StoreLatency: 1, CallStackSize: 1024})
	prog, err := Assemble(src, testSet, testRegs, mem)
	if err != nil {
		t.Fatalf("Assemble failed: %v", err)
	}
	return prog, mem
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	mem := memory.New(memory.Config{Size: 64 * 1024, CallStackSize: 1024})
	_, err := Assemble(src, testSet, testRegs, mem)
	if err == nil {
		t.Fatalf("Assemble(%q) should have failed", src)
	}
	return err
}

func TestBasicRType(t *testing.T) {
	prog, _ := assemble(t, "add x3, x1, x2\n")
	if len(prog.Instructions) != 1 {
		t.Fatalf("got %d instructions", len(prog.Instructions))
	}
	in := prog.Instructions[0]
	if in.Desc.Name != "add" {
		t.Errorf("name = %s", in.Desc.Name)
	}
	if in.Op("rd").Reg != 3 || in.Op("rs1").Reg != 1 || in.Op("rs2").Reg != 2 {
		t.Errorf("registers = %d,%d,%d", in.Op("rd").Reg, in.Op("rs1").Reg, in.Op("rs2").Reg)
	}
}

func TestAbiRegisterNames(t *testing.T) {
	prog, _ := assemble(t, "add a0, sp, t6\n")
	in := prog.Instructions[0]
	if in.Op("rd").Reg != 10 || in.Op("rs1").Reg != 2 || in.Op("rs2").Reg != 31 {
		t.Errorf("ABI aliases resolved to %d,%d,%d", in.Op("rd").Reg, in.Op("rs1").Reg, in.Op("rs2").Reg)
	}
}

func TestImmediateForms(t *testing.T) {
	prog, _ := assemble(t, `
addi x1, x0, -42
addi x2, x0, 0x10
andi x3, x1, 0b101
`)
	if got := prog.Instructions[0].Op("imm").Val; got != -42 {
		t.Errorf("imm[0] = %d, want -42", got)
	}
	if got := prog.Instructions[1].Op("imm").Val; got != 16 {
		t.Errorf("imm[1] = %d, want 16", got)
	}
	if got := prog.Instructions[2].Op("imm").Val; got != 5 {
		t.Errorf("imm[2] = %d, want 5", got)
	}
}

func TestLoadStoreAddressing(t *testing.T) {
	prog, _ := assemble(t, `
lw x5, 8(x2)
sw x5, -4(x2)
lw x6, (x2)
`)
	lw := prog.Instructions[0]
	if lw.Op("rd").Reg != 5 || lw.Op("rs1").Reg != 2 || lw.Op("imm").Val != 8 {
		t.Errorf("lw parsed wrong: %+v", lw.String())
	}
	sw := prog.Instructions[1]
	if sw.Op("rs2").Reg != 5 || sw.Op("rs1").Reg != 2 || sw.Op("imm").Val != -4 {
		t.Errorf("sw parsed wrong: %s", sw.String())
	}
	if prog.Instructions[2].Op("imm").Val != 0 {
		t.Error("bare (reg) addressing should have imm 0")
	}
}

func TestBranchLabelsAreRelative(t *testing.T) {
	prog, _ := assemble(t, `
start:
  addi x1, x1, 1
  beq x1, x2, start
  bne x1, x2, end
  nop
end:
  nop
`)
	beq := prog.Instructions[1]
	if got := beq.Op("imm").Val; got != -1 {
		t.Errorf("backward branch offset = %d, want -1", got)
	}
	bne := prog.Instructions[2]
	if got := bne.Op("imm").Val; got != 2 {
		t.Errorf("forward branch offset = %d, want 2", got)
	}
}

func TestJalForms(t *testing.T) {
	prog, _ := assemble(t, `
main:
  jal func
  jal x0, main
func:
  ret
`)
	jal1 := prog.Instructions[0]
	if jal1.Op("rd").Reg != isa.RegRA {
		t.Error("1-operand jal must link ra")
	}
	if jal1.Op("imm").Val != 2 {
		t.Errorf("jal offset = %d, want 2", jal1.Op("imm").Val)
	}
	jal2 := prog.Instructions[1]
	if jal2.Op("rd").Reg != 0 || jal2.Op("imm").Val != -1 {
		t.Errorf("jal x0, main parsed wrong: rd=%d imm=%d", jal2.Op("rd").Reg, jal2.Op("imm").Val)
	}
	// ret expands to jalr x0, ra, 0.
	ret := prog.Instructions[2]
	if ret.Desc.Name != "jalr" || ret.Op("rd").Reg != 0 || ret.Op("rs1").Reg != isa.RegRA {
		t.Errorf("ret expansion wrong: %s", ret.String())
	}
}

func TestJalrForms(t *testing.T) {
	prog, _ := assemble(t, `
jalr x1, x5, 8
jalr x1, 4(x5)
jalr x1, x5
jalr x5
`)
	for i, want := range []struct {
		rd, rs1 int
		imm     int64
	}{{1, 5, 8}, {1, 5, 4}, {1, 5, 0}, {isa.RegRA, 5, 0}} {
		in := prog.Instructions[i]
		if in.Op("rd").Reg != want.rd || in.Op("rs1").Reg != want.rs1 || in.Op("imm").Val != want.imm {
			t.Errorf("jalr form %d: rd=%d rs1=%d imm=%d, want %+v",
				i, in.Op("rd").Reg, in.Op("rs1").Reg, in.Op("imm").Val, want)
		}
	}
}

func TestPseudoInstructions(t *testing.T) {
	prog, _ := assemble(t, `
nop
li t0, 1000
mv t1, t0
neg t2, t0
not t3, t0
seqz t4, t0
beqz t0, out
j out
out:
  ret
`)
	names := []string{"addi", "addi", "addi", "sub", "xori", "sltiu", "beq", "jal", "jalr"}
	if len(prog.Instructions) != len(names) {
		t.Fatalf("got %d instructions, want %d", len(prog.Instructions), len(names))
	}
	for i, want := range names {
		if prog.Instructions[i].Desc.Name != want {
			t.Errorf("instr %d = %s, want %s", i, prog.Instructions[i].Desc.Name, want)
		}
	}
	li := prog.Instructions[1]
	if li.Op("imm").Val != 1000 || li.Op("rs1").Reg != 0 || li.Op("rd").Reg != 5 {
		t.Errorf("li expansion wrong: %s", li.String())
	}
}

func TestPaperListing2MemoryDefinitions(t *testing.T) {
	// The exact example from the paper's Listing 2.
	prog, mem := assemble(t, `
x:
  .word 5          # integer variable x

.align 4
arr:
  .zero 64         # 64 bytes with 16B alignment

hello:
  .asciiz "Hello World"  # null-terminated string
`)
	xp, ok := mem.Lookup("x")
	if !ok {
		t.Fatal("x not allocated")
	}
	v, _ := mem.ReadRaw(xp.Addr, 4)
	if v != 5 {
		t.Errorf("x = %d, want 5", v)
	}
	arr, ok := mem.Lookup("arr")
	if !ok {
		t.Fatal("arr not allocated")
	}
	if arr.Addr%16 != 0 {
		t.Errorf("arr at %d, not 16-byte aligned", arr.Addr)
	}
	if arr.Size != 64 {
		t.Errorf("arr size = %d, want 64", arr.Size)
	}
	hp, ok := mem.Lookup("hello")
	if !ok {
		t.Fatal("hello not allocated")
	}
	b, _ := mem.ReadBytes(hp.Addr, 12)
	if string(b[:11]) != "Hello World" || b[11] != 0 {
		t.Errorf("hello = %q %v", string(b[:11]), b[11])
	}
	if prog.Symbols["arr"] != int64(arr.Addr) {
		t.Error("symbol table does not match allocation")
	}
}

func TestLabelArithmeticInOperands(t *testing.T) {
	// The paper's la x4, arr+64 example (§III-C).
	prog, mem := assemble(t, `
la x4, arr+64
la x5, arr + 4 * 2
.data
arr:
  .zero 128
`)
	arr, _ := mem.Lookup("arr")
	if got := prog.Instructions[0].Op("imm").Val; got != int64(arr.Addr+64) {
		t.Errorf("arr+64 = %d, want %d", got, arr.Addr+64)
	}
	if got := prog.Instructions[1].Op("imm").Val; got != int64(arr.Addr+8) {
		t.Errorf("arr+4*2 = %d, want %d", got, arr.Addr+8)
	}
}

func TestHiLoRelocations(t *testing.T) {
	prog, mem := assemble(t, `
lui a5, %hi(x)
addi a5, a5, %lo(x)
.data
x: .word 7
`)
	xp, _ := mem.Lookup("x")
	hi := prog.Instructions[0].Op("imm").Val
	lo := prog.Instructions[1].Op("imm").Val
	if (hi<<12)+lo != int64(xp.Addr) {
		t.Errorf("%%hi<<12 + %%lo = %d, want %d", (hi<<12)+lo, xp.Addr)
	}
}

func TestDataWithLabelReferences(t *testing.T) {
	// .word can reference labels (jump/data tables).
	_, mem := assemble(t, `
table:
  .word x, x+4
.align 2
x:
  .word 11, 22
`)
	tbl, _ := mem.Lookup("table")
	xp, _ := mem.Lookup("x")
	w0, _ := mem.ReadRaw(tbl.Addr, 4)
	w1, _ := mem.ReadRaw(tbl.Addr+4, 4)
	if int(w0) != xp.Addr || int(w1) != xp.Addr+4 {
		t.Errorf("table = [%d, %d], want [%d, %d]", w0, w1, xp.Addr, xp.Addr+4)
	}
}

func TestDataDirectiveSizes(t *testing.T) {
	_, mem := assemble(t, `
b: .byte 1, 2
h: .hword 0x1234
w: .word -1
d: .dword 0x1122334455667788
f: .float 1.5
dd: .double -2.25
`)
	bp, _ := mem.Lookup("b")
	bb, _ := mem.ReadBytes(bp.Addr, 2)
	if bb[0] != 1 || bb[1] != 2 {
		t.Errorf(".byte = %v", bb)
	}
	hp, _ := mem.Lookup("h")
	hb, _ := mem.ReadBytes(hp.Addr, 2)
	if hb[0] != 0x34 || hb[1] != 0x12 {
		t.Errorf(".hword little-endian = %v", hb)
	}
	wp, _ := mem.Lookup("w")
	wv, _ := mem.ReadRaw(wp.Addr, 4)
	if wv != 0xFFFFFFFF {
		t.Errorf(".word -1 = %#x", wv)
	}
	dp, _ := mem.Lookup("d")
	db, _ := mem.ReadBytes(dp.Addr, 8)
	if db[0] != 0x88 || db[7] != 0x11 {
		t.Errorf(".dword bytes = %v", db)
	}
	fp, _ := mem.Lookup("f")
	fv, _ := mem.ReadRaw(fp.Addr, 4)
	if fv != uint64(float32bits(1.5)) {
		t.Errorf(".float bits = %#x", fv)
	}
	ddp, _ := mem.Lookup("dd")
	lo, _ := mem.ReadRaw(ddp.Addr, 4)
	hi, _ := mem.ReadRaw(ddp.Addr+4, 4)
	if uint64(lo)|uint64(hi)<<32 != float64bits(-2.25) {
		t.Errorf(".double bits = %#x %#x", hi, lo)
	}
}

func TestEquConstants(t *testing.T) {
	prog, _ := assemble(t, `
.equ N, 16
.set M, N*2
addi x1, x0, N
addi x2, x0, M
`)
	if prog.Instructions[0].Op("imm").Val != 16 {
		t.Error(".equ constant wrong")
	}
	if prog.Instructions[1].Op("imm").Val != 32 {
		t.Error(".set with expression wrong")
	}
}

func TestFloatRegisterOperands(t *testing.T) {
	prog, _ := assemble(t, `
fadd.s f1, f2, f3
flw fa0, 0(sp)
fmadd.s f0, f1, f2, f3
fcvt.w.s a0, fa0
`)
	if prog.Instructions[0].Op("rd").Reg != 1 {
		t.Error("fadd.s rd wrong")
	}
	if prog.Instructions[1].Op("rd").Reg != 10 || prog.Instructions[1].Op("rs1").Reg != 2 {
		t.Error("flw operands wrong")
	}
	if prog.Instructions[2].Op("rs3").Reg != 3 {
		t.Error("fmadd.s rs3 wrong")
	}
	if prog.Instructions[3].Op("rd").Reg != 10 {
		t.Error("fcvt.w.s int destination wrong")
	}
}

func TestRegisterClassMismatchRejected(t *testing.T) {
	err := parseErr(t, "fadd.s x1, x2, x3\n")
	if !strings.Contains(err.Error(), "class") {
		t.Errorf("error should mention register class: %v", err)
	}
	parseErr(t, "add f1, f2, f3\n")
}

func TestSyntaxErrorsReported(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"frobnicate x1, x2\n", "unknown instruction"},
		{"add x1, x2\n", "expects operands"},
		{"add x1, x2, x99\n", "unknown register"},
		{"beq x1, x2\n", "expects operands"},
		{"lw x1, nowhere_label\n", "undefined symbol"},
		{".word\n", "at least one value"},
		{".frobdir 1\n", "unsupported directive"},
	}
	for _, c := range cases {
		err := parseErr(t, c.src)
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Assemble(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	err := parseErr(t, "nop\nnop\nbogus_instr x1\n")
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should point at line 3: %v", err)
	}
}

func TestMultipleErrorsCollected(t *testing.T) {
	mem := memory.New(memory.Config{Size: 4096, CallStackSize: 0})
	_, err := Assemble("bogus1\nbogus2\n", testSet, testRegs, mem)
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error is %T, want ErrorList", err)
	}
	if len(el) != 2 {
		t.Errorf("collected %d errors, want 2", len(el))
	}
}

func TestDuplicateLabelRejected(t *testing.T) {
	parseErr(t, "dup:\nnop\ndup:\nnop\n")
}

func TestEntryPoint(t *testing.T) {
	prog, _ := assemble(t, `
setup:
  nop
main:
  nop
`)
	if e, err := prog.EntryPoint(""); err != nil || e != 0 {
		t.Errorf("default entry = %d, %v", e, err)
	}
	if e, err := prog.EntryPoint("main"); err != nil || e != 1 {
		t.Errorf("entry(main) = %d, %v", e, err)
	}
	if _, err := prog.EntryPoint("nope"); err == nil {
		t.Error("unknown entry label should fail")
	}
}

func TestCommentsEverywhere(t *testing.T) {
	prog, _ := assemble(t, `
# full line comment
add x1, x2, x3  # trailing comment
// C++ style
sub x1, x2, x3  // trailing
/* block
   comment */
and x1, x2, x3
`)
	if len(prog.Instructions) != 3 {
		t.Errorf("got %d instructions, want 3", len(prog.Instructions))
	}
}

func TestStaticMix(t *testing.T) {
	prog, _ := assemble(t, `
add x1, x2, x3
lw x1, 0(x2)
sw x1, 0(x2)
beq x1, x2, done
done:
  nop
`)
	mix := prog.MixStatic()
	if mix[isa.TypeArithmetic] != 2 || mix[isa.TypeLoad] != 1 ||
		mix[isa.TypeStore] != 1 || mix[isa.TypeBranch] != 1 {
		t.Errorf("mix = %v", mix)
	}
}

func TestFilterCompilerOutput(t *testing.T) {
	src := `
	.file	"test.c"
	.option nopic
	.attribute arch, "rv32i2p1"
	.text
	.align	1
	.globl	main
	.type	main, @function
main:
	addi	sp,sp,-16
	li	a0,0
	ret
	.size	main, .-main
	.ident	"GCC: 13.2.0"
`
	out := FilterCompilerOutput(src)
	for _, gone := range []string{".file", ".ident", ".globl", ".type", ".size", ".option", ".attribute"} {
		if strings.Contains(out, gone) {
			t.Errorf("filter left %q in:\n%s", gone, out)
		}
	}
	for _, kept := range []string{"addi", "li", "ret", ".text"} {
		if !strings.Contains(out, kept) {
			t.Errorf("filter removed %q from:\n%s", kept, out)
		}
	}
	// main is never referenced by an instruction here, so its label may
	// be dropped; but referenced labels must be kept:
	src2 := "main:\n\tj main\n"
	if !strings.Contains(FilterCompilerOutput(src2), "main:") {
		t.Error("filter must keep referenced labels")
	}
}

func TestCharLiterals(t *testing.T) {
	prog, _ := assemble(t, "li a0, 'A'\nli a1, '\\n'\n")
	if prog.Instructions[0].Op("imm").Val != 65 {
		t.Error("'A' should be 65")
	}
	if prog.Instructions[1].Op("imm").Val != 10 {
		t.Error("'\\n' should be 10")
	}
}

func TestSkipAndSpaceDirectives(t *testing.T) {
	_, mem := assemble(t, `
a: .skip 10
b: .space 6
c: .byte 9
`)
	ap, _ := mem.Lookup("a")
	bp, _ := mem.Lookup("b")
	cp, _ := mem.Lookup("c")
	if bp.Addr < ap.Addr+10 || cp.Addr < bp.Addr+6 {
		t.Errorf("skip allocation overlaps: a=%d b=%d c=%d", ap.Addr, bp.Addr, cp.Addr)
	}
}
