package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"riscvsim/internal/asm"
	"riscvsim/internal/config"
	"riscvsim/internal/expr"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

// ---------------------------------------------------------------------------
// Specialization seam: every specialized opcode must match the expression
// interpreter bit for bit, across randomized operands (the fallback and
// the fast path implement the same semantics by construction, and this
// property test keeps them from drifting).
// ---------------------------------------------------------------------------

// leadingNops puts every instruction under test at a non-zero PC, so
// \pc-relative semantics (auipc, jal, branch targets) are exercised away
// from the origin.
const leadingNops = 2

// buildInstr assembles a tiny program around one instance of the
// instruction so the descriptor, operand resolution and plan compilation
// all go through the production path.
func buildInstr(t *testing.T, set *isa.Set, line string) *asm.Instruction {
	t.Helper()
	regs := isa.NewRegisterFile()
	mem := memory.New(memory.Config{Size: 1 << 16, LoadLatency: 1, StoreLatency: 1})
	src := strings.Repeat("nop\n", leadingNops) + line + strings.Repeat("\nnop", 4)
	prog, err := asm.Assemble(src, set, regs, mem)
	if err != nil {
		t.Fatalf("assembling %q: %v", line, err)
	}
	return prog.Instructions[leadingNops]
}

// edgeImms are the immediates every immediate-bearing instruction is
// assembled with: shift amounts 0 and 31, a negative value (sltiu's
// unsigned view, sign-extended masks), both 12-bit extremes and a value
// wider than 12 bits (lui/auipc).
var edgeImms = []int{0, 31, -1, 13, -2047, 2047, 311}

// asmLines returns assembly lines for one descriptor, derived from its
// format and argument kinds: one line, or one per edge immediate.
func asmLines(d *isa.Desc) []string {
	reg := func(name string) string {
		names := map[string]string{"rd": "t0", "rs1": "t1", "rs2": "t2", "rs3": "t3"}
		if a := d.Arg(name); a != nil && a.Kind == isa.ArgRegFloat {
			return "f" + names[name]
		}
		return names[name]
	}
	var tmpl string
	switch d.Format {
	case isa.FmtNone:
		return []string{d.Name}
	case isa.FmtR:
		return []string{fmt.Sprintf("%s %s, %s, %s", d.Name, reg("rd"), reg("rs1"), reg("rs2"))}
	case isa.FmtR2:
		return []string{fmt.Sprintf("%s %s, %s", d.Name, reg("rd"), reg("rs1"))}
	case isa.FmtR4:
		return []string{fmt.Sprintf("%s %s, %s, %s, %s", d.Name, reg("rd"), reg("rs1"), reg("rs2"), reg("rs3"))}
	case isa.FmtBranch:
		return []string{fmt.Sprintf("%s %s, %s, 2", d.Name, reg("rs1"), reg("rs2"))}
	case isa.FmtJ:
		return []string{fmt.Sprintf("%s %s, 3", d.Name, reg("rd"))}
	case isa.FmtI:
		tmpl = fmt.Sprintf("%s %s, %s, %%d", d.Name, reg("rd"), reg("rs1"))
	case isa.FmtU:
		tmpl = fmt.Sprintf("%s %s, %%d", d.Name, reg("rd"))
	case isa.FmtLoad:
		tmpl = fmt.Sprintf("%s %s, %%d(%s)", d.Name, reg("rd"), reg("rs1"))
	case isa.FmtStore:
		tmpl = fmt.Sprintf("%s %s, %%d(%s)", d.Name, reg("rs2"), reg("rs1"))
	}
	lines := make([]string, len(edgeImms))
	for i, imm := range edgeImms {
		lines[i] = fmt.Sprintf(tmpl, imm)
	}
	return lines
}

// specISA is the instruction set the specialization tests iterate: the
// built-in RV32IMF set (so the mnemonic list is never restated here) plus
// user-defined descriptors probing the rule that the *expression*, with
// the flags and argument types the shells assume, decides specialization.
// It returns the set and, for the user-defined names, whether each must
// specialize; a built-in must specialize unless it is FP arithmetic.
func specISA() (*isa.Set, map[string]bool) {
	set := isa.RV32IMF()
	intArg := func(name string) isa.ArgDesc {
		return isa.ArgDesc{Name: name, Kind: isa.ArgRegInt, Type: expr.Int}
	}
	rd := isa.ArgDesc{Name: "rd", Kind: isa.ArgRegInt, Type: expr.Int, WriteBack: true}
	imm := isa.ArgDesc{Name: "imm", Kind: isa.ArgImm, Type: expr.Int}
	longRs1 := intArg("rs1")
	longRs1.Type = expr.Long
	user := []struct {
		desc isa.Desc
		spec bool
	}{
		// A new name for a built-in expression specializes.
		{isa.Desc{Name: "myadd", Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtR,
			Args: []isa.ArgDesc{rd, intArg("rs1"), intArg("rs2")}, ExprSrc: `\rs1 \rs2 + \rd =`}, true},
		// A built-in expression whose flags, classification or argument
		// types are not the ones the shells assume falls back.
		{isa.Desc{Name: "beq.uncond", Type: isa.TypeBranch, Unit: isa.Branch, Format: isa.FmtBranch,
			Args:    []isa.ArgDesc{intArg("rs1"), intArg("rs2"), {Name: "imm", Kind: isa.ArgLabel, Type: expr.Int}},
			ExprSrc: `\rs1 \rs2 ==`, PCRelative: true}, false},
		{isa.Desc{Name: "add.asload", Type: isa.TypeLoad, Unit: isa.FX, Format: isa.FmtR,
			Args: []isa.ArgDesc{rd, intArg("rs1"), intArg("rs2")}, ExprSrc: `\rs1 \rs2 + \rd =`}, false},
		{isa.Desc{Name: "add.long", Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtR,
			Args: []isa.ArgDesc{rd, longRs1, intArg("rs2")}, ExprSrc: `\rs1 \rs2 + \rd =`}, false},
		// An expression that reads an operand the instruction lacks.
		{isa.Desc{Name: "add.nors2", Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtR2,
			Args: []isa.ArgDesc{rd, intArg("rs1")}, ExprSrc: `\rs1 \rs2 + \rd =`}, false},
	}
	want := make(map[string]bool, len(user))
	for i := range user {
		set.Register(&user[i].desc)
		want[user[i].desc.Name] = user[i].spec
	}
	// The table gives every kernel operator an immediate form, including
	// the ones RV32IM only has in register form (`\rs1 \imm / \rd =`):
	// each must specialize and agree with the interpreter, division and
	// remainder by an immediate 0 or -1 (edgeImms) included.
	toks := make([]string, 0, len(aluOperators))
	for tok := range aluOperators {
		toks = append(toks, tok)
	}
	sort.Strings(toks) // a fixed order keeps the tests' random stream reproducible
	for _, tok := range toks {
		name := fmt.Sprintf("alui%d", aluOperators[tok])
		set.Register(&isa.Desc{Name: name, Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtI,
			Args: []isa.ArgDesc{rd, intArg("rs1"), imm}, ExprSrc: `\rs1 \imm ` + tok + ` \rd =`})
		want[name] = true
	}
	return set, want
}

// mustSpecialize reports whether d is expected on the fast path.
func mustSpecialize(d *isa.Desc, user map[string]bool) bool {
	if spec, ok := user[d.Name]; ok {
		return spec
	}
	return d.Unit != isa.FP
}

// execCase is one randomized evaluation: captured source values plus
// fetch-time branch prediction state.
type execCase struct {
	vals       []int32
	predTaken  bool
	predTarget int
	predStall  bool
}

// prepInstr builds a SimInstr with captured operands, mirroring what
// rename + capture leave behind by execution time.
func prepInstr(in *asm.Instruction, c *execCase) *SimInstr {
	si := &SimInstr{ID: 1, Static: in, PC: in.Index}
	for _, v := range c.vals {
		si.srcs[si.nsrc] = srcOperand{captured: true, value: expr.NewInt(v)}
		si.nsrc++
	}
	si.predTaken = c.predTaken
	si.predTarget = c.predTarget
	si.predStall = c.predStall
	return si
}

// compareOutcomes fails the test when the specialized and generic
// executions diverge in any observable way.
func compareOutcomes(t *testing.T, name string, c *execCase, fast, slow *SimInstr) {
	t.Helper()
	if fast.resultReady != slow.resultReady || fast.result != slow.result {
		t.Errorf("%s %v: result fast=(%v,%v) slow=(%v,%v)",
			name, c.vals, fast.result, fast.resultReady, slow.result, slow.resultReady)
	}
	if fast.actualTaken != slow.actualTaken || fast.actualTgt != slow.actualTgt ||
		fast.mispredict != slow.mispredict {
		t.Errorf("%s %v pred=%+v: branch fast=(%v,%d,%v) slow=(%v,%d,%v)",
			name, c.vals, c, fast.actualTaken, fast.actualTgt, fast.mispredict,
			slow.actualTaken, slow.actualTgt, slow.mispredict)
	}
	if fast.effAddr != slow.effAddr || fast.storeData != slow.storeData {
		t.Errorf("%s %v: memory fast=(%d,%d) slow=(%d,%d)",
			name, c.vals, fast.effAddr, fast.storeData, slow.effAddr, slow.storeData)
	}
	switch {
	case fast.Exc.Occurred() != slow.Exc.Occurred():
		t.Errorf("%s %v: exception fast=%v slow=%v", name, c.vals, fast.Exc, slow.Exc)
	case fast.Exc.Occurred():
		if fast.Exc.Kind != slow.Exc.Kind || fast.Exc.Error() != slow.Exc.Error() ||
			fast.Exc.Cycle != slow.Exc.Cycle || fast.Exc.PC != slow.Exc.PC {
			t.Errorf("%s %v: exception fast=%q slow=%q", name, c.vals, fast.Exc.Error(), slow.Exc.Error())
		}
	}
}

func TestExecSpecializedMatchesInterpreter(t *testing.T) {
	set, user := specISA()
	rng := rand.New(rand.NewSource(42))

	// Edge operands mixed into the random stream.
	edges := []int32{0, 1, -1, 2, -2, 31, 32, 33, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 0x7FFF, -0x8000}
	randVal := func() int32 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int32(rng.Uint32())
	}

	for _, d := range set.All() {
		if !mustSpecialize(d, user) {
			continue
		}
		for _, line := range asmLines(d) {
			t.Run(line, func(t *testing.T) {
				in := buildInstr(t, set, line)
				if in.Desc != d {
					t.Fatalf("assembled %q, want %q", in.Desc.Name, d.Name)
				}
				plan := specializePlan(in)
				if plan.op == execFallback {
					t.Fatalf("%s did not specialize; the table drifted from the ISA", d.Name)
				}

				nsrc := 0
				for i := range d.Args {
					a := &d.Args[i]
					if !a.WriteBack && (a.Kind == isa.ArgRegInt || a.Kind == isa.ArgRegFloat) {
						nsrc++
					}
				}

				rplans := make([]renamePlan, in.Index+1)
				rplans[in.Index] = newRenamePlans([]*asm.Instruction{in}, []*isa.Desc{in.Desc}, []int32{0})[0]
				fastEng := &ExecEngine{prog: &Program{plans: make([]execPlan, in.Index+1), rplans: rplans}, ev: expr.NewEvaluator()}
				fastEng.prog.plans[in.Index] = plan
				slowEng := &ExecEngine{prog: &Program{plans: make([]execPlan, in.Index+1), rplans: rplans}, ev: expr.NewEvaluator()}
				// slowEng's plans stay execFallback: the generic interpreter.

				const rounds = 300
				for round := 0; round < rounds; round++ {
					c := &execCase{
						vals:       make([]int32, nsrc),
						predTaken:  rng.Intn(2) == 0,
						predTarget: rng.Intn(6),
						predStall:  rng.Intn(8) == 0,
					}
					for i := range c.vals {
						c.vals[i] = randVal()
					}
					now := uint64(rng.Intn(1000) + 1)
					fast := prepInstr(in, c)
					slow := prepInstr(in, c)
					fastEng.Execute(fast, now)
					slowEng.Execute(slow, now)
					compareOutcomes(t, line, c, fast, slow)
				}
			})
		}
	}
}

// TestExecSpecializationCoverage pins which descriptors specialize: all of
// RV32IM and the FP loads/stores, user-defined instructions with a
// built-in expression, and nothing whose expression, flags or argument
// types differ from what the shells assume.
func TestExecSpecializationCoverage(t *testing.T) {
	set, user := specISA()
	specialized := 0
	for _, d := range set.All() {
		got := specializePlan(buildInstr(t, set, asmLines(d)[0])).op != execFallback
		if want := mustSpecialize(d, user); got != want {
			t.Errorf("%s (%q): specialized = %v, want %v", d.Name, d.ExprSrc, got, want)
		}
		if got {
			specialized++
		}
	}
	if specialized < 45 {
		t.Errorf("only %d descriptors specialize; RV32IM should be fully covered", specialized)
	}

	// A descriptor with a built-in name but altered semantics must not
	// take the fast path.
	alien := isa.NewSet()
	alien.Register(&isa.Desc{
		Name: "add", Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtR,
		Args: []isa.ArgDesc{
			{Name: "rd", Kind: isa.ArgRegInt, Type: expr.Int, WriteBack: true},
			{Name: "rs1", Kind: isa.ArgRegInt, Type: expr.Int},
			{Name: "rs2", Kind: isa.ArgRegInt, Type: expr.Int},
		},
		ExprSrc: `\rs1 \rs2 + 1 + \rd =`, // off-by-one "add"
	})
	regs := isa.NewRegisterFile()
	mem := memory.New(memory.Config{Size: 1 << 12, LoadLatency: 1, StoreLatency: 1})
	prog, err := asm.Assemble("add t0, t1, t2\n", alien, regs, mem)
	if err != nil {
		t.Fatal(err)
	}
	if plan := specializePlan(prog.Instructions[0]); plan.op != execFallback {
		t.Errorf("redefined add specialized to op %d; must fall back to the interpreter", plan.op)
	}
}

// ---------------------------------------------------------------------------
// Zero-allocation contract: in steady state, Step() must not touch the
// heap.
// ---------------------------------------------------------------------------

func TestStepAllocFree(t *testing.T) {
	pipelined := config.Default()
	for i := range pipelined.Units {
		pipelined.Units[i].Pipelined = true
	}
	for _, c := range []struct {
		name string
		cfg  *config.CPU
		src  string
	}{
		{"default", config.Default(), mispredictLoop},
		{"wide4", config.Wide4(), mispredictLoop},
		{"pipelined", pipelined, mispredictLoop},
		{"miss-heavy", config.Default(), strideWalk},
	} {
		t.Run(c.name, func(t *testing.T) { stepAllocFree(t, c.cfg, c.src) })
	}
}

// mispredictLoop is a mispredicting integer loop with loads and stores: it
// exercises fetch, rename, issue (candidate and waiter lists), the
// specialized engine, the LSU, commit, flush recovery and instruction
// recycling.
const mispredictLoop = `
  la s0, buf
  li t0, 0
  li t1, 40000
loop:
  andi t2, t0, 7
  slli t3, t2, 2
  add  t3, t3, s0
  sw   t0, 0(t3)
  lw   t4, 0(t3)
  andi t5, t0, 1
  bne  t5, x0, odd
  addi t6, t4, 3
odd:
  addi t0, t0, 1
  bne  t0, t1, loop
.data
.align 4
buf: .zero 64
`

// strideWalk increments one word per 64-byte line over 32 KiB, twice the
// default L1: every access misses, fills a line from memory and evicts a
// dirty one, which is written back.
const strideWalk = `
  la s0, buf
  li t0, 0
  li t1, 40000
loop:
  andi t2, t0, 511
  slli t3, t2, 6
  add  t3, t3, s0
  lw   t4, 0(t3)
  addi t4, t4, 1
  sw   t4, 0(t3)
  addi t0, t0, 1
  bne  t0, t1, loop
.data
.align 4
buf: .zero 32768
`

func stepAllocFree(t *testing.T, cfg *config.CPU, src string) {
	sim := buildSim(t, cfg, src)
	// Warm up: grow every scratch buffer, the free list, the rename
	// structures and the log to their steady-state footprint, and (for
	// the stride walk) have every L1 set and memory page written once.
	sim.Run(60000)
	if sim.Halted() {
		t.Fatal("program finished during warm-up; extend the loop")
	}
	// AllocsPerRun rounds down, so a run is 50 steps: an allocation every
	// few dozen cycles (one per L1 miss in the stride walk) shows.
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			sim.Step()
		}
	})
	if sim.Halted() {
		t.Fatal("program finished during measurement; extend the loop")
	}
	if avg != 0 {
		t.Errorf("50 steps allocate %.4f objects in steady state, want 0", avg)
	}
	if misses := sim.ledger.Cache.Misses; src == strideWalk && misses < 2000 {
		t.Errorf("the stride walk missed the L1 %d times; it should miss on every access", misses)
	}
}
