package core

import (
	"testing"

	"riscvsim/internal/config"
)

// ffCompare runs src to completion in both the detailed pipeline and the
// fast-forward functional mode and asserts that the final architectural
// states agree — the block-boundary invariant every edge case below
// exercises. It returns the fast-forward simulation for extra checks.
func ffCompare(t *testing.T, src string) *Simulation {
	t.Helper()
	return ffCompareMode(t, src, false)
}

// ffCompareMode additionally forces the fast-forward run through the
// generic per-instruction interpreter path (ffGenericOp) when generic is
// set, pinning the fused and unfused functional semantics against the
// same detailed reference.
func ffCompareMode(t *testing.T, src string, generic bool) *Simulation {
	t.Helper()
	det := runSrc(t, src)

	ff := buildSim(t, config.Default(), src)
	ff.SetEngineMode(EngineFastForward)
	ff.SetFastForwardInterpreter(generic)
	ff.Run(2_000_000)
	if !ff.Halted() {
		t.Fatalf("fast-forward run did not halt within 2M cycles (pc=%d)", ff.fetch.pc)
	}
	if got, want := ff.HaltReason(), det.HaltReason(); got != want {
		t.Errorf("halt reason: fast-forward %q, detailed %q", got, want)
	}
	if got, want := ff.Committed(), det.Committed(); got != want {
		t.Errorf("committed: fast-forward %d, detailed %d", got, want)
	}
	if got, want := ff.ArchHash(), det.ArchHash(); got != want {
		t.Errorf("ArchHash: fast-forward %#x, detailed %#x", got, want)
	}
	// The fast-forward cycle convention: one committed instruction per
	// cycle, exactly. A faulting instruction consumes its cycle without
	// committing — same as the detailed engine's commit bookkeeping.
	wantCycles := ff.Committed()
	if ff.Exception() != nil {
		wantCycles++
	}
	if ff.Cycle() != wantCycles {
		t.Errorf("fast-forward cycle %d != %d (committed %d)", ff.Cycle(), wantCycles, ff.Committed())
	}
	return ff
}

// TestFFBackToBackBranches: consecutive branch instructions force
// single-instruction blocks in the middle of a loop — each branch is a
// block terminator and the next instruction is a new leader.
func TestFFBackToBackBranches(t *testing.T) {
	ff := ffCompare(t, `
  li x5, 5
  li x10, 0
loop:
  beq x5, x0, done
  beq x5, x5, dec
dec:
  addi x10, x10, 3
  addi x5, x5, -1
  jal x0, loop
done:
  ecall
`)
	if got := intReg(t, ff, "a0"); got != 15 {
		t.Errorf("a0 = %d, want 15", got)
	}
}

// TestFFJalrMidBlockSplit: a jalr lands in the middle of a straight-line
// block — execution must start at the landing pc instead of replaying the
// block head.
func TestFFJalrMidBlockSplit(t *testing.T) {
	ff := ffCompare(t, `
  jal x1, sub
  addi x10, x10, 1
  addi x10, x10, 2
  addi x10, x10, 4
  ecall
sub:
  addi x1, x1, 2
  jalr x0, x1, 0
`)
	// jalr jumps to the third addi (index 3): only the +4 executes.
	if got := intReg(t, ff, "a0"); got != 4 {
		t.Errorf("a0 = %d, want 4 (mid-block entry must skip the block head)", got)
	}
}

// TestFFSingleInstructionBlocks: every instruction is its own block
// (each one a branch or the halting ecall) — the degenerate case of the
// block partition.
func TestFFSingleInstructionBlocks(t *testing.T) {
	ffCompare(t, `
  beq x0, x0, l1
l1:
  bne x0, x0, l2
l2:
  jal x5, l3
l3:
  ecall
`)
}

// TestFFTakenBranchIntoCompiledFallThrough: a backward branch re-enters
// a block that was first entered as a fall-through — the loop body is
// both a fall-through successor (first iteration) and a branch target
// (every later iteration).
func TestFFTakenBranchIntoCompiledFallThrough(t *testing.T) {
	ff := ffCompare(t, `
  li x5, 4
  li x10, 1
loop:
  slli x10, x10, 1
  addi x5, x5, -1
  bne x5, x0, loop
  ecall
`)
	if got := intReg(t, ff, "a0"); got != 16 {
		t.Errorf("a0 = %d, want 16", got)
	}
}

// ffKitchenSink exercises every specialized RV32I opcode, every memory
// width in both signednesses, both jump forms, every conditional branch
// taken and not taken, and float ops (which fall back to the generic
// interpreter inside a fused block).
const ffKitchenSink = `
  lui x5, 16
  auipc x6, 0
  addi x7, x0, -100
  slti x8, x7, 0
  sltiu x9, x7, 1
  andi x10, x7, 0xf
  ori x11, x7, 0x10
  xori x12, x7, -1
  slli x13, x12, 3
  srli x14, x7, 4
  srai x15, x7, 4
  add x16, x13, x14
  sub x17, x13, x14
  sll x18, x16, x8
  slt x19, x7, x16
  sltu x20, x7, x16
  xor x21, x16, x17
  srl x22, x7, x8
  sra x23, x7, x8
  or x24, x21, x22
  and x25, x21, x22
  la x28, arena
  sb x7, 0(x28)
  sh x7, 2(x28)
  sw x7, 4(x28)
  lb x26, 0(x28)
  lbu x27, 0(x28)
  lh x29, 2(x28)
  lhu x30, 2(x28)
  lw x31, 4(x28)
  la x5, fdata
  flw f0, 0(x5)
  flw f1, 4(x5)
  fadd.s f2, f0, f1
  fmul.s f3, f0, f1
  fsw f3, 8(x5)
  fcvt.w.s x6, f2
  beq x26, x27, skip1
  addi x10, x10, 1
skip1:
  bne x26, x27, skip2
  addi x10, x10, 2
skip2:
  blt x7, x0, skip3
  addi x10, x10, 4
skip3:
  bge x0, x7, skip4
  addi x10, x10, 8
skip4:
  bltu x7, x0, skip5
  addi x10, x10, 16
skip5:
  bgeu x7, x0, skip6
  addi x10, x10, 32
skip6:
  jal x1, sub
  ecall
sub:
  jalr x0, x1, 0
.data
arena: .zero 16
fdata: .word 0x3fc00000, 0x40200000, 0
`

// TestFFKitchenSinkFused: the full specialized-opcode sweep through the
// fused block plans against the detailed pipeline.
func TestFFKitchenSinkFused(t *testing.T) {
	ffCompare(t, ffKitchenSink)
}

// TestFFKitchenSinkGeneric: the same sweep with the fused blocks forced
// through the generic interpreter path — the third semantic path the
// nightly fuzzer compares.
func TestFFKitchenSinkGeneric(t *testing.T) {
	ffCompareMode(t, ffKitchenSink, true)
}

// TestFFMemoryFaults: out-of-bounds accesses must fault identically in
// fast-forward and detailed mode — same exception text, same committed
// count (ffCompare checks both via halt reason and ArchHash).
func TestFFMemoryFaults(t *testing.T) {
	cases := map[string]string{
		"load": `
  li x5, 1
  lui x6, 1048575
  lw x7, 0(x6)
  ecall
`,
		"store": `
  li x5, 1
  lui x6, 1048575
  sw x5, 0(x6)
  ecall
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			ff := ffCompare(t, src)
			if ff.Exception() == nil {
				t.Fatal("expected a memory fault, got a clean halt")
			}
		})
	}
}

// TestFFSteadyStateAllocFree: once the fast-forward tables are built, the
// fast-forward step loop must not allocate — the same discipline the
// detailed engine's Step pins in BenchmarkStep.
func TestFFSteadyStateAllocFree(t *testing.T) {
	ff := buildSim(t, config.Default(), `
  li x5, 1000000
loop:
  addi x10, x10, 1
  addi x5, x5, -1
  bne x5, x0, loop
  ecall
`)
	ff.SetEngineMode(EngineFastForward)
	ff.Run(64) // warm up
	allocs := testing.AllocsPerRun(100, func() { ff.Step() })
	if allocs > 0 {
		t.Errorf("fast-forward Step allocates %.1f times per call in steady state, want 0", allocs)
	}
}
