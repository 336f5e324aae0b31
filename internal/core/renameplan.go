package core

import (
	"riscvsim/internal/asm"
	"riscvsim/internal/isa"
)

// Load-time rename plans: the per-instruction operand walk renameStep used
// to do every cycle — scanning descriptor arguments and resolving operand
// names through string-keyed Op() lookups — is computed once per static
// instruction at program load, the same compile-at-load idiom as execPlan
// and blockPlan. The per-cycle rename loop then reads flat arrays of
// pre-resolved register classes and indices.

// renameSrc is one pre-resolved source operand of a static instruction.
type renameSrc struct {
	name  string // argument name, read by the interpreter and checkpoints
	class isa.RegClass
	reg   int32
}

// renamePlan is the pre-resolved rename metadata of one static
// instruction: its register sources in descriptor-argument order and its
// destination. hasDest is false for an integer x0 destination — such a
// write is architecturally discarded and allocates nothing.
type renamePlan struct {
	srcs      [maxSrcOperands]renameSrc
	nsrc      uint8
	payload   int8 // slot of the source named rs2 (a store's payload), or -1
	hasDest   bool
	destClass isa.RegClass
	destReg   int32
}

// newRenamePlans compiles the rename metadata for every static
// instruction: the descriptor's argument walk once per kind (kinds and
// kindOf as in Program), then each instruction's registers.
func newRenamePlans(instrs []*asm.Instruction, kinds []*isa.Desc, kindOf []int32) []renamePlan {
	// kindArgs are a kind's register sources in descriptor-argument
	// order and its destination.
	type kindArgs struct {
		srcs [maxSrcOperands]*isa.ArgDesc
		nsrc uint8
		dest *isa.ArgDesc
	}
	var buf [64]kindArgs // a Program's kinds stay on the stack
	kas := buf[:0]
	for _, desc := range kinds {
		var ka kindArgs
		for j := range desc.Args {
			if a := &desc.Args[j]; !a.WriteBack && (a.Kind == isa.ArgRegInt || a.Kind == isa.ArgRegFloat) {
				ka.srcs[ka.nsrc] = a
				ka.nsrc++
			}
		}
		ka.dest = desc.DestArg()
		kas = append(kas, ka)
	}
	plans := make([]renamePlan, len(instrs))
	for i, in := range instrs {
		ka := &kas[kindOf[i]]
		p := &plans[i]
		p.payload = -1
		for j, a := range ka.srcs[:ka.nsrc] {
			if a.Name == "rs2" {
				p.payload = int8(j)
			}
			p.srcs[j] = renameSrc{name: a.Name, class: regClass(a), reg: int32(opFor(in, a).Reg)}
		}
		p.nsrc = ka.nsrc
		if dst := ka.dest; dst != nil {
			class, reg := regClass(dst), opFor(in, dst).Reg
			if !(class == isa.RegInt && reg == isa.RegZero) {
				p.hasDest = true
				p.destClass = class
				p.destReg = int32(reg)
			}
		}
	}
	return plans
}

// regClass is the register file of a register argument.
func regClass(a *isa.ArgDesc) isa.RegClass {
	if a.Kind == isa.ArgRegFloat {
		return isa.RegFloat
	}
	return isa.RegInt
}

// opFor returns in's operand bound to a, an argument of its descriptor,
// or nil: Instruction.Op, matched by the argument itself.
func opFor(in *asm.Instruction, a *isa.ArgDesc) *asm.Operand {
	for i := range in.Ops {
		if in.Ops[i].Arg == a {
			return &in.Ops[i]
		}
	}
	return nil
}
