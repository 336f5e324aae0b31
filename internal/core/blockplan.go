package core

import (
	"fmt"

	"riscvsim/internal/asm"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
)

// Fused basic-block plans and the fast-forward functional engine.
//
// At first fast-forward use every static instruction of the Program is
// fused into one ffOp — the specialized opcode with operands pre-resolved
// to *architectural* register indices (the per-instruction execPlans
// resolve to renamed source slots instead, which only exist in the
// detailed pipeline) — and a backward pass records where each basic block
// ends: at the first branch or halting instruction. The block starting at
// any pc is then the slice ffOps[pc:blockEnd[pc]], so executing a block
// costs one slice and one tight loop, the per-block trick GVSoC uses to
// reach tens of MIPS (PAPERS.md, Bruschi et al.). Both tables belong to
// the shared Program and are read-only once built.
//
// Fast-forward mode (EngineFastForward) executes these plans against the
// architectural state only: no fetch/rename/ROB/LSU modeling, no cache or
// predictor traffic, one committed instruction per simulated cycle. The
// committed instruction stream — and therefore every architectural
// register, memory byte, the committed count and the halt story — is
// identical to a detailed run of the same program (ArchHash pins this;
// TestFastForwardEquivalence proves it on the corpus), while
// timing state (cycle counts, stall counters, cache/predictor contents)
// is deliberately not modeled.
//
// Control can enter a block mid-way (a jalr landing between two leaders):
// any pc is a legal block start, and such an entry simply runs the suffix
// of the enclosing block. Switchover back to the detailed pipeline is
// legal at any block boundary: fast-forward leaves every pipeline
// structure empty and keeps fetch's PC at the next instruction, so the
// detailed engine resumes as if freshly redirected there.

// ffOp is one fused operation of a block plan: the specialized opcode with
// operands resolved to architectural register indices, plus the commit
// bookkeeping the detailed pipeline would have derived from the
// descriptor. Instructions outside the specialized subset carry
// execFallback and run through the expression interpreter.
type ffOp struct {
	op       execOp
	rdClass  isa.RegClass // register file of the destination
	rs2Class isa.RegClass // register file of rs2 (a store payload may be float)
	halts    bool
	memWidth uint8
	flops    uint8
	typ      isa.InstrType
	// Architectural register indices; -1 = absent (or an x0 destination,
	// which is architecturally discarded).
	rd  int16
	rs1 int16
	rs2 int16
	imm int32
	tgt int32
	// static backs the interpreter fallback, exception messages and load
	// conversion (LoadValue needs the descriptor).
	static *asm.Instruction
}

// ffInit builds the fast-forward tables on first fast-forward use, once
// per Program however many simulations race to it: the fused operation of
// every static instruction and the per-PC block-end table (one backward
// pass). Programs only ever run in detail never pay for it.
func (p *Program) ffInit() {
	p.ffOnce.Do(func() {
		n := len(p.instrs)
		ops := make([]ffOp, n)
		ends := make([]int32, n)
		for i := n - 1; i >= 0; i-- {
			in := p.instrs[i]
			ops[i] = ffCompileOp(&p.plans[i], &p.rplans[i], in)
			if in.Desc.IsBranch() || in.Desc.Halts || i == n-1 {
				ends[i] = int32(i + 1)
			} else {
				ends[i] = ends[i+1]
			}
		}
		p.ffOps, p.blockEnd = ops, ends
	})
}

// ffCompileOp fuses one static instruction into a block-plan operation,
// re-resolving the execPlan's renamed source slots to the architectural
// register indices the rename plan already holds for them.
func ffCompileOp(p *execPlan, rp *renamePlan, in *asm.Instruction) ffOp {
	d := in.Desc
	o := ffOp{
		op: p.op, halts: d.Halts, memWidth: uint8(d.MemWidth),
		flops: uint8(d.Flops), typ: d.Type,
		rd: -1, rs1: -1, rs2: -1, imm: p.imm, tgt: int32(p.tgt), static: in,
	}
	if p.op == execFallback {
		return o
	}
	if p.rs1 >= 0 {
		o.rs1 = int16(rp.srcs[p.rs1].reg)
	}
	if p.rs2 >= 0 {
		o.rs2, o.rs2Class = int16(rp.srcs[p.rs2].reg), rp.srcs[p.rs2].class
	}
	if rp.hasDest {
		o.rd, o.rdClass = int16(rp.destReg), rp.destClass
	}
	return o
}

// ---------------------------------------------------------------------------
// Fast-forward execution
// ---------------------------------------------------------------------------

// ffDrained reports whether no speculative work is in flight, i.e. the
// architectural state is the complete state and a fused block may run.
func (s *Simulation) ffDrained() bool {
	return s.rob.Empty() && len(s.pendingDecode()) == 0 &&
		s.lsu.Drained() && s.fetch.waitBranch == nil
}

// ffStep advances the simulation one step in fast-forward mode: while
// in-flight instructions remain from a detailed prefix it runs one
// detailed cycle with fetch suppressed (the pipeline drains at a block
// boundary by construction); once drained it executes one fused basic
// block per call, so every Step lands on a block commit boundary.
func (s *Simulation) ffStep() {
	if !s.ffDrained() {
		s.pipelineCycle(false)
		return
	}
	if !s.ffFlushed {
		// A detailed prefix may have left dirty lines in the cache;
		// fast-forward reads memory directly, so make it coherent once
		// per switchover.
		s.l1.FlushAll(s.ledger.Cycles)
		s.ffFlushed = true
	}
	pc := s.fetch.pc
	if pc < 0 || pc >= len(s.prog.instrs) {
		// The program ran off the code segment (the entry routine
		// returned to the sentinel address): same end story as the
		// detailed pipeline draining empty.
		s.halted = true
		s.haltReason = "pipeline empty"
		s.logf(s.ledger.Cycles, "halt: pipeline empty after %d committed instructions", s.ledger.Committed)
		s.l1.FlushAll(s.ledger.Cycles)
		return
	}
	s.ffRunBlock(pc)
}

// ffRunBlock executes the fused block starting at start against the
// architectural state: one committed instruction per cycle, branch
// early-out at the terminator, fetch's PC tracking the commit point so a
// switchover to detailed mode resumes exactly there.
func (s *Simulation) ffRunBlock(start int) {
	ops := s.prog.ffOps[start:s.prog.blockEnd[start]]
	for i := range ops {
		pc := start + i
		if s.commitLimit != 0 && s.ledger.Committed >= s.commitLimit {
			// Commit-limit cut (RunToCommitted): stop before retiring
			// past the boundary; any PC is a legal block boundary, and
			// the caller's loop exits before re-entering the block.
			s.fetch.pc = pc
			return
		}
		if pc == s.ffStopPC && pc != start {
			// FastForwardToPC lands mid-block: cut the block here (any
			// PC is a legal block boundary) without executing further.
			s.fetch.pc = pc
			return
		}
		o := &ops[i]
		next := pc + 1
		s.ledger.Cycles++
		if s.eng.forceGeneric || o.op == execFallback {
			n, ok := s.ffGenericOp(o, pc)
			if !ok {
				return // exception: the halt story is already recorded
			}
			next = n
		} else if !s.ffSpecOp(o, pc, &next) {
			return
		}
		s.ledger.Committed++
		s.ledger.DynamicMix[o.typ]++
		s.ledger.Flops += uint64(o.flops)
		s.fetch.pc = next
		if o.halts {
			s.halted = true
			s.haltReason = fmt.Sprintf("%s executed (the simulator runs no OS; environment calls end the program)", o.static.Desc.Name)
			s.logf(s.ledger.Cycles, "halt: %s", s.haltReason)
			s.l1.FlushAll(s.ledger.Cycles)
			return
		}
	}
}

// ffSpecOp executes one specialized fused operation: the fast-forward
// shell around the kernel (alu, branchTaken), plus the memory/writeback
// stages the detailed pipeline would run after ExecEngine.Execute. It
// reports false when the operation faulted.
func (s *Simulation) ffSpecOp(o *ffOp, pc int, next *int) bool {
	a, b := int32(0), o.imm
	if o.rs1 >= 0 {
		a = s.rf.ArchValue(isa.RegInt, int(o.rs1)).Int()
	}
	if o.rs2 >= 0 && o.op != execStoreAddr {
		b = s.rf.ArchValue(isa.RegInt, int(o.rs2)).Int()
	}
	v := int32(pc) + 1 // the link value, unless the op computes another
	switch o.op {
	case execNop:
		return true
	case execConst:
		v = o.imm
	case execJAL:
		*next = int(o.tgt)
	case execJALR:
		*next = int(a + b)
	case execLoadAddr, execStoreAddr:
		addr := int(a + b)
		if exc := s.checkAddress(o.static, addr); exc != nil {
			s.ffFault(exc, pc)
			return false
		}
		if o.op == execStoreAddr {
			_ = s.mem.WriteRaw(addr, int(o.memWidth), s.rf.ArchValue(o.rs2Class, int(o.rs2)).Bits())
		} else if o.rd >= 0 {
			raw, _ := s.mem.ReadRaw(addr, int(o.memWidth))
			s.rf.SetArchValue(o.rdClass, int(o.rd), LoadValue(o.static.Desc, raw))
		}
		return true
	case execBEQ, execBNE, execBLT, execBGE, execBLTU, execBGEU:
		if branchTaken(o.op, a, b) {
			*next = int(o.tgt)
		}
		return true
	default:
		var div0 bool
		if v, div0 = alu(o.op, a, b); div0 {
			s.ffFault(divZeroExc(o.op, a), pc)
			return false
		}
	}
	// Publish the integer result to the architectural register file,
	// through the same injected-bug hook as the detailed specialized path
	// so the co-simulation harness covers fused plans too. An x0 (or
	// absent) destination computes and discards, like the pipeline.
	if semanticBug != nil {
		v = semanticBug(o.static.Desc.Name, a, b, v)
	}
	if o.rd >= 0 {
		s.rf.SetArchValue(isa.RegInt, int(o.rd), expr.NewInt(v))
	}
	return true
}

// ffFault ends the run exactly as a detailed commit would raise the
// exception: the faulting instruction does not count as committed.
func (s *Simulation) ffFault(exc *fault.Exception, pc int) {
	exc.Cycle = s.ledger.Cycles
	exc.PC = pc
	s.fetch.pc = pc
	s.haltWithException(exc, s.ledger.Cycles)
}

// ffGenericOp executes one operation through the expression interpreter —
// the total-coverage fallback (and, with the interpreter forced, the
// functional reference leg of the three-way co-simulation). The reusable
// scratch instruction is populated the way renameStep captures sources,
// with values read directly from the architectural file. Returns the next
// PC and false when the operation faulted.
func (s *Simulation) ffGenericOp(o *ffOp, pc int) (int, bool) {
	si := &s.ffScratch
	*si = SimInstr{Static: o.static, PC: pc}
	desc := o.static.Desc
	rp := &s.prog.rplans[pc]
	for i := 0; i < int(rp.nsrc); i++ {
		rs := &rp.srcs[i]
		si.srcs[i] = srcOperand{captured: true, value: s.rf.ArchValue(rs.class, int(rs.reg))}
	}
	si.nsrc = rp.nsrc
	si.hasDest = rp.hasDest
	s.eng.executeGeneric(si, s.ledger.Cycles)
	if si.Exc.Occurred() {
		s.ffFault(si.Exc, pc)
		return 0, false
	}
	next := pc + 1
	switch {
	case desc.IsBranch():
		next = si.actualTgt
	case desc.IsLoad(), desc.IsStore():
		if exc := s.checkAddress(si.Static, si.effAddr); exc != nil {
			s.ffFault(exc, pc)
			return 0, false
		}
		if desc.IsStore() {
			_ = s.mem.WriteRaw(si.effAddr, desc.MemWidth, si.storeData)
		} else {
			raw, _ := s.mem.ReadRaw(si.effAddr, desc.MemWidth)
			si.result = LoadValue(desc, raw)
			si.resultReady = true
		}
	}
	if si.hasDest && !desc.IsStore() {
		// Mirror writebackDest + commit: an unassigned destination
		// publishes zero, exactly like the pipeline's bookkeeping.
		v := expr.NewInt(0)
		if si.resultReady {
			v = si.result
		}
		s.rf.SetArchValue(rp.destClass, int(rp.destReg), v)
	}
	return next, true
}
