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
// instruction.
func newRenamePlans(prog *asm.Program) []renamePlan {
	plans := make([]renamePlan, len(prog.Instructions))
	for i, in := range prog.Instructions {
		p := &plans[i]
		p.payload = -1
		desc := in.Desc
		for j := range desc.Args {
			a := &desc.Args[j]
			if a.WriteBack || (a.Kind != isa.ArgRegInt && a.Kind != isa.ArgRegFloat) {
				continue
			}
			class := isa.RegInt
			if a.Kind == isa.ArgRegFloat {
				class = isa.RegFloat
			}
			if a.Name == "rs2" {
				p.payload = int8(p.nsrc)
			}
			p.srcs[p.nsrc] = renameSrc{
				name: a.Name, class: class, reg: int32(in.Op(a.Name).Reg),
			}
			p.nsrc++
		}
		if dst := desc.DestArg(); dst != nil {
			class := isa.RegInt
			if dst.Kind == isa.ArgRegFloat {
				class = isa.RegFloat
			}
			reg := in.Op(dst.Name).Reg
			if !(class == isa.RegInt && reg == isa.RegZero) {
				p.hasDest = true
				p.destClass = class
				p.destReg = int32(reg)
			}
		}
	}
	return plans
}
