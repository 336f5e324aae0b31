package core

import (
	"math"
	"strings"

	"riscvsim/internal/asm"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
)

// Specialized execution engine: at program load every static instruction's
// semantics are compiled once into an execPlan — a compact opcode plus
// operands pre-resolved to renamed-source slots and immediate values — so
// the per-cycle execute path dispatches on an integer instead of walking
// the generic postfix program through string-keyed environment lookups.
//
// RV32IM integer semantics are stated once, in the pure kernel at the top
// of this file (alu, branchTaken, divZeroExc). The detailed pipeline
// (ExecEngine.Execute) and the fast-forward block plans
// (Simulation.ffSpecOp, blockplan.go) are operand-fetch/writeback shells
// around it. The expression interpreter stays separate on purpose: it is
// the reference the kernel is checked against
// (TestExecSpecializedMatchesInterpreter, TestRV32MEdgeCasesAllEngines,
// internal/fuzz) and the total fallback for everything the kernel does
// not cover, so the semantics-as-data extensibility of the paper (§III-B)
// is preserved.
//
// Which instructions take the fast path is decided by their *expression
// source*, not their mnemonic: a descriptor that names a built-in
// expression differently specializes, and one that keeps a built-in name
// but changes the expression falls back. The fast path relies on the
// core's value invariant: integer-class register values always carry type
// kInt (every writeback converts to the destination argument's declared
// type).

// execOp is the specialized opcode of one static instruction. The
// conditional branches must stay a contiguous range (isCondBranch).
type execOp uint8

const (
	execFallback execOp = iota // generic expression interpreter
	execNop                    // empty semantics (fence, ecall, ebreak)
	execConst                  // lui/auipc: the result is a load-time constant
	execJAL
	execJALR
	execLoadAddr  // loads: effective address rs1+imm
	execStoreAddr // stores: effective address rs1+imm, payload from rs2
	execBEQ
	execBNE
	execBLT
	execBGE
	execBLTU
	execBGEU
	execADD
	execSUB
	execSLL
	execSLT
	execSLTU
	execXOR
	execSRL
	execSRA
	execOR
	execAND
	execMUL
	execMULH
	execMULHSU
	execMULHU
	execDIV
	execDIVU
	execREM
	execREMU
)

func (op execOp) isCondBranch() bool { return op >= execBEQ && op <= execBGEU }

// alu is the one statement of RV32IM register-register integer semantics.
// Register-immediate forms call it with b = the immediate. div0 reports a
// division or remainder by zero, which the paper's simulator traps
// (§III-B) instead of returning the RISC-V all-ones result.
func alu(op execOp, a, b int32) (v int32, div0 bool) {
	switch op {
	case execADD:
		return a + b, false
	case execSUB:
		return a - b, false
	case execSLL:
		return int32(uint32(a) << (uint32(b) & 31)), false
	case execSLT:
		return b2i(a < b), false
	case execSLTU:
		return b2i(uint32(a) < uint32(b)), false
	case execXOR:
		return a ^ b, false
	case execSRL:
		return int32(uint32(a) >> (uint32(b) & 31)), false
	case execSRA:
		return a >> (uint32(b) & 31), false
	case execOR:
		return a | b, false
	case execAND:
		return a & b, false
	case execMUL:
		return a * b, false
	case execMULH:
		return int32((int64(a) * int64(b)) >> 32), false
	case execMULHSU:
		return int32((int64(a) * int64(uint64(uint32(b)))) >> 32), false
	case execMULHU:
		return int32((uint64(uint32(a)) * uint64(uint32(b))) >> 32), false
	}
	if b == 0 {
		return 0, true
	}
	overflow := a == math.MinInt32 && b == -1 // RISC-V overflow semantics
	switch op {
	case execDIV:
		if overflow {
			return math.MinInt32, false
		}
		return a / b, false
	case execDIVU:
		return int32(uint32(a) / uint32(b)), false
	case execREM:
		if overflow {
			return 0, false
		}
		return a % b, false
	default: // execREMU
		return int32(uint32(a) % uint32(b)), false
	}
}

// branchTaken evaluates a conditional branch predicate.
func branchTaken(op execOp, a, b int32) bool {
	switch op {
	case execBEQ:
		return a == b
	case execBNE:
		return a != b
	case execBLT:
		return a < b
	case execBGE:
		return a >= b
	case execBLTU:
		return uint32(a) < uint32(b)
	default: // execBGEU
		return uint32(a) >= uint32(b)
	}
}

// divZeroFormats are the interpreter's division-by-zero messages.
var divZeroFormats = [...]string{
	execDIV - execDIV:  "integer division %d / 0",
	execDIVU - execDIV: "unsigned division %d / 0",
	execREM - execDIV:  "integer remainder %d %% 0",
	execREMU - execDIV: "unsigned remainder %d %% 0",
}

// divZeroExc builds the interpreter-identical exception for an alu div0.
func divZeroExc(op execOp, a int32) *fault.Exception {
	return fault.New(fault.DivisionByZero, divZeroFormats[op-execDIV], a)
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// execPlan is the load-time compilation of one static instruction.
type execPlan struct {
	op execOp
	// rs1/rs2 are slots in si.srcs (the rename order of the descriptor's
	// source arguments), or -1 when the operand is absent. An absent rs2
	// makes the immediate the second operand, which is how the
	// register-immediate forms (addi, slli, ...) share their register
	// forms' opcodes.
	rs1 int8
	rs2 int8
	// imm is the semantic immediate exactly as the interpreter sees it
	// (expr.NewInt truncation of the operand value); for execConst it is
	// the finished result.
	imm int32
	// tgt is the absolute PC-relative target (index + untruncated operand
	// value), matching resolveBranch's arithmetic.
	tgt int
}

// Names an expression can read; specDef.reads is a set of them.
const (
	readRs1 uint8 = 1 << iota
	readRs2
	readImm
	readPC
)

// specDef is one row of the specialization table: the opcode a built-in
// expression compiles to and the operands that expression reads, which
// the instruction must therefore supply.
type specDef struct {
	op    execOp
	reads uint8
}

// aluOperators maps the binary operators of the expression language that
// the kernel implements to their opcodes. `\rs1 \rs2 OP \rd =` and
// `\rs1 \imm OP \rd =` both specialize to the operator's opcode.
var aluOperators = map[string]execOp{
	"+": execADD, "-": execSUB, "<<": execSLL, "<": execSLT, "<u": execSLTU,
	"^": execXOR, ">>>": execSRL, ">>": execSRA, "|": execOR, "&": execAND,
	"*": execMUL, "mulh": execMULH, "mulhsu": execMULHSU, "mulhu": execMULHU,
	"/": execDIV, "/u": execDIVU, "%": execREM, "%u": execREMU,
}

// branchOperators maps the comparison a conditional branch leaves on the
// stack (`\rs1 \rs2 OP`) to its opcode.
var branchOperators = map[string]execOp{
	"==": execBEQ, "!=": execBNE, "<": execBLT, ">=": execBGE, "<u": execBLTU, ">=u": execBGEU,
}

// specTable is keyed by expression source, so it cannot drift from the
// mnemonics in internal/isa and needs no row per mnemonic.
var specTable = buildSpecTable()

func buildSpecTable() map[string]specDef {
	table := make(map[string]specDef)
	add := func(src string, op execOp) {
		def := specDef{op: op}
		for i, name := range [...]string{`\rs1`, `\rs2`, `\imm`, `\pc`} {
			if strings.Contains(src, name) {
				def.reads |= 1 << i
			}
		}
		table[src] = def
	}
	add(``, execNop)
	add(`\imm 12 << \rd =`, execConst)
	add(`\imm 12 << \pc + \rd =`, execConst)
	add(`\pc 1 + \rd =`, execJAL)
	add(`\pc 1 + \rd = \rs1 \imm +`, execJALR)
	// Effective address of a load or, on a store descriptor, a store.
	add(`\rs1 \imm +`, execLoadAddr)
	for tok, op := range aluOperators {
		add(`\rs1 \rs2 `+tok+` \rd =`, op)
		add(`\rs1 \imm `+tok+` \rd =`, op)
	}
	for tok, op := range branchOperators {
		add(`\rs1 \rs2 `+tok, op)
	}
	return table
}

// specializePlan compiles one static instruction, or returns the fallback
// plan when the descriptor's expression is not a built-in one or its
// classification, flags or argument types are not the ones the shells
// assume.
func specializePlan(in *asm.Instruction) execPlan {
	k := specializeKind(in.Desc)
	return k.plan(in)
}

// specKind is what specializing learns from an instruction's descriptor
// alone, worked out once per kind (Program.kinds): the shell, the source
// slots and what the expression reads. fallback marks a descriptor no
// shell takes.
type specKind struct {
	def      specDef
	op       execOp
	rs1, rs2 int8
	need     uint8
	fallback bool
	// imm is the descriptor's immediate argument, or nil.
	imm *isa.ArgDesc
}

// specializeKind examines descriptor d for specializePlan.
func specializeKind(d *isa.Desc) specKind {
	fallback := specKind{fallback: true}
	def, ok := specTable[d.ExprSrc]
	if !ok {
		return fallback
	}
	// The pipeline post-processes an executed instruction by its
	// descriptor's classification and branch flags (completeInstr,
	// resolveBranch); specialize only when they say what op's shell does.
	op, typ := def.op, isa.TypeArithmetic
	switch {
	case op == execLoadAddr && d.IsStore():
		op, typ = execStoreAddr, isa.TypeStore
	case op == execLoadAddr:
		typ = isa.TypeLoad
	case op == execJAL || op == execJALR || op.isCondBranch():
		typ = isa.TypeBranch
	}
	if d.Type != typ || d.Conditional != op.isCondBranch() ||
		d.PCRelative != (typ == isa.TypeBranch && op != execJALR) {
		return fallback
	}
	// Walk the argument list in the exact order renameStep captures
	// sources, resolving rs1/rs2 to their src slots and verifying the
	// types the kernel assumes.
	rs1, rs2 := int8(-1), int8(-1)
	slot := int8(0)
	for i := range d.Args {
		a := &d.Args[i]
		intReg := a.Kind == isa.ArgRegInt && a.Type == expr.Int
		switch {
		case a.WriteBack:
			// Kernel results are written as kInt; a load's destination
			// is filled by LoadValue, so any class works.
			if !intReg && typ != isa.TypeLoad {
				return fallback
			}
		case a.Kind == isa.ArgRegInt || a.Kind == isa.ArgRegFloat:
			switch {
			case a.Name == "rs1" && intReg:
				rs1 = slot
			case a.Name == "rs2" && (intReg || op == execStoreAddr):
				// A store payload may be a float register (captured as
				// raw bits); every other rs2 must be an integer.
				rs2 = slot
			default:
				return fallback
			}
			slot++
		default: // immediate or label
			if a.Name != "imm" || a.Type != expr.Int {
				return fallback
			}
		}
	}
	need := def.reads
	if op == execStoreAddr {
		need |= readRs2 // the payload
	}
	if (need&readRs1 != 0 && rs1 < 0) || (need&readRs2 != 0 && rs2 < 0) {
		return fallback
	}
	if need&readRs2 == 0 {
		rs2 = -1 // a register the expression ignores: operand b is the immediate
	}
	return specKind{def: def, op: op, rs1: rs1, rs2: rs2, need: need, imm: d.Arg("imm")}
}

// plan compiles instruction in of the kind: its immediate and, for
// targets and pc-relative constants, its index.
func (k *specKind) plan(in *asm.Instruction) execPlan {
	imm := opFor(in, k.imm)
	if k.fallback || (k.need&readImm != 0 && imm == nil) {
		return execPlan{op: execFallback}
	}
	p := execPlan{op: k.op, rs1: k.rs1, rs2: k.rs2}
	if imm != nil {
		p.imm = int32(imm.Val)
		p.tgt = in.Index + int(imm.Val)
	}
	if k.op == execConst {
		p.imm <<= 12
		if k.def.reads&readPC != 0 {
			p.imm += int32(in.Index)
		}
	}
	return p
}

// ExecEngine executes instruction semantics for one simulation: the
// specialized fast path over the Program's pre-compiled plans, with the
// expression interpreter as the total fallback. It owns only the
// interpreter's scratch state. Not safe for concurrent use (the pipeline
// executes sequentially).
type ExecEngine struct {
	prog *Program // read-only: the plans live there
	ev   *expr.Evaluator
	env  instrEnv // reusable fallback Env; passing &env avoids boxing
	// forceGeneric routes every instruction through the expression
	// interpreter, ignoring the specialized plans — the functional
	// reference path of the co-simulation harness (EngineInterpreter).
	forceGeneric bool
}

// semanticBug, when non-nil, post-processes every specialized result. It
// exists solely so the co-simulation harness can prove end-to-end that an
// engine divergence is detected and shrunk (internal/fuzz); the
// interpreter path never sees it, so any injected bug diverges the two
// engines. Each shell applies it in one place (the end of Execute and of
// ffSpecOp). Production runs leave it nil and pay one pointer check.
var semanticBug func(op string, a, b, result int32) int32

// SetSemanticBugForTesting installs (nil clears) the specialized-path
// result corruption hook. Test-only: not safe to toggle while simulations
// run concurrently.
func SetSemanticBugForTesting(f func(op string, a, b, result int32) int32) {
	semanticBug = f
}

func newExecEngine(p *Program) *ExecEngine {
	return &ExecEngine{prog: p, ev: expr.NewEvaluator()}
}

// setResult buffers a computed destination value exactly as the
// interpreter's `=` would: converted to the declared kInt operand type.
func setResult(si *SimInstr, v int32) {
	si.result = expr.NewInt(v)
	si.resultReady = true
}

// raise attaches an exception generated while executing si; it is
// reported when si commits (paper §III-B).
func (si *SimInstr) raise(exc *fault.Exception, now uint64) {
	exc.Cycle = now
	exc.PC = si.PC
	si.Exc = exc
}

// Execute evaluates the instruction's semantics against its captured
// operands, leaving results, branch outcomes, effective addresses, store
// payloads and exceptions on the instruction — the compute half of the
// functional-unit model (paper §III-A).
func (e *ExecEngine) Execute(si *SimInstr, now uint64) {
	p := &e.prog.plans[si.PC]
	if e.forceGeneric || p.op == execFallback {
		e.executeGeneric(si, now)
		return
	}
	a, b := int32(0), p.imm
	if p.rs1 >= 0 {
		a = si.srcs[p.rs1].value.Int()
	}
	if p.rs2 >= 0 && p.op != execStoreAddr {
		b = si.srcs[p.rs2].value.Int()
	}
	switch p.op {
	case execNop:
	case execConst:
		setResult(si, p.imm)
	case execJAL:
		setResult(si, int32(si.PC)+1)
		finishBranch(si, true, p.tgt)
	case execJALR:
		setResult(si, int32(si.PC)+1)
		finishBranch(si, true, int(a+b))
	case execLoadAddr:
		si.effAddr = int(a + b)
	case execStoreAddr:
		si.effAddr = int(a + b)
		si.storeData = si.srcs[p.rs2].value.Bits()
	case execBEQ, execBNE, execBLT, execBGE, execBLTU, execBGEU:
		finishBranch(si, branchTaken(p.op, a, b), p.tgt)
	default:
		v, div0 := alu(p.op, a, b)
		if div0 {
			si.raise(divZeroExc(p.op, a), now)
			return
		}
		setResult(si, v)
	}
	if semanticBug != nil && si.resultReady {
		setResult(si, semanticBug(si.Static.Desc.Name, a, b, si.result.Int()))
	}
}

// executeGeneric is the total fallback: the expression interpreter over
// the instruction's compiled program, plus the post-evaluation capture of
// branch outcomes, effective addresses and store payloads.
func (e *ExecEngine) executeGeneric(si *SimInstr, now uint64) {
	rp := &e.prog.rplans[si.PC]
	e.env.si, e.env.rp = si, rp
	res, err := e.ev.Eval(si.Static.Desc.Prog, &e.env)
	e.env.si, e.env.rp = nil, nil
	if err != nil {
		exc, ok := err.(*fault.Exception)
		if !ok {
			exc = &fault.Exception{Kind: fault.InvalidInstruction, Msg: err.Error()}
		}
		si.raise(exc, now)
		return
	}
	desc := si.Static.Desc
	switch {
	case desc.IsBranch():
		resolveBranch(si, res)
	case desc.IsLoad(), desc.IsStore():
		// The expression computed the effective address.
		if res.HasValue {
			si.effAddr = int(res.Value.Int())
		}
		if desc.IsStore() && rp.payload >= 0 {
			// Capture the store payload from rs2 now.
			si.storeData = si.srcs[rp.payload].value.Bits()
		}
	}
}

// resolveBranch computes the actual direction and target from the generic
// evaluation result. Conditional branches leave their condition on the
// expression stack; jalr leaves its absolute target; PC-relative jumps use
// the immediate (paper §III-B).
func resolveBranch(si *SimInstr, res expr.Result) {
	desc := si.Static.Desc
	taken := true
	if desc.Conditional {
		taken = res.HasValue && res.Value.Bool()
	}
	tgt := si.actualTgt
	if desc.PCRelative {
		if imm := si.Static.Op("imm"); imm != nil {
			tgt = si.PC + int(imm.Val)
		}
	} else if res.HasValue {
		tgt = int(res.Value.Int())
	}
	finishBranch(si, taken, tgt)
}

// finishBranch records the resolved direction/target and classifies the
// prediction. A misprediction is any difference between the next PC fetch
// assumed and the real one; a fetch stalled on an unknown target
// (predStall) fetched nothing wrong, so it only needs a redirect.
func finishBranch(si *SimInstr, taken bool, tgt int) {
	si.actualTaken = taken
	si.actualTgt = tgt
	if !taken {
		si.actualTgt = si.PC + 1
	}
	predNext := si.PC + 1
	if si.predTaken {
		predNext = si.predTarget
	}
	si.mispredict = !si.predStall && predNext != si.actualTgt
}
