package core

import (
	"fmt"
	"sync"
	"unsafe"

	"riscvsim/internal/asm"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

// Program is the compiled form of one assembled program: everything that
// depends only on the source text, the instruction set and the memory
// layout, built once and shared by every simulation of that program —
// concurrent sessions, batch entries, backward-step replays, snapshot
// restores and the forks of a time-parallel run (docs/architecture.md).
//
// A Program is immutable once NewProgram returns. The exceptions are the
// fast-forward tables and the display tables, each built on first use
// behind a sync.Once and read-only afterwards. Simulations only ever read
// it: the image in particular is the pristine load-time memory, and every
// simulation works on its own copy-on-write clone of it.
type Program struct {
	regs   *isa.RegisterFile
	code   *asm.Program
	instrs []*asm.Instruction // code.Instructions, one load closer to the hot loops
	// image is memory exactly as the assembler left it: the base that
	// checkpoints encode deltas against and that replays restart from.
	image *memory.Main
	// staticMix counts the instructions by class, for the statistics
	// document.
	staticMix [isa.NumInstrTypes]uint64

	plans  []execPlan   // exec.go: specialized semantics per static instruction
	rplans []renamePlan // renameplan.go: pre-resolved register operands
	// finfo and nextBranch are the fetch unit's pre-decoded control flow
	// (fetch.go): nextBranch[i] is the code index of the first branch at
	// or after i, so [i, nextBranch[i]) is straight-line.
	finfo      []fetchInfo
	nextBranch []int32

	// Fast-forward tables (blockplan.go), built by ffInit.
	ffOnce   sync.Once
	ffOps    []ffOp
	blockEnd []int32

	// Display tables (state.go), built by display.
	dispOnce sync.Once
	disp     *display

	// kinds are the distinct descriptors the code uses, in order of first
	// use, and kindOf[i] is instruction i's index among them: what depends
	// only on the mnemonic is resolved once per kind (fu.go).
	kinds  []*isa.Desc
	kindOf []int32
}

// NewProgram compiles an assembled program. image must be the memory the
// program was assembled into; the Program takes ownership of it and it
// must not be written afterwards. The image is frozen here, once, so the
// Clone every machine starts from only reads it.
func NewProgram(regs *isa.RegisterFile, code *asm.Program, image *memory.Main) *Program {
	image.Freeze()
	n := len(code.Instructions)
	p := &Program{
		regs: regs, code: code, instrs: code.Instructions, image: image,
		plans:      make([]execPlan, n),
		finfo:      make([]fetchInfo, n),
		nextBranch: make([]int32, n),
	}
	for t, n := range code.MixStatic() {
		p.staticMix[t] = uint64(n)
	}
	p.kinds, p.kindOf = kindsOf(p.instrs)
	p.rplans = newRenamePlans(p.instrs, p.kinds, p.kindOf)
	var buf [64]specKind // a Program's kinds stay on the stack
	specs := buf[:0]
	for _, d := range p.kinds {
		specs = append(specs, specializeKind(d))
	}
	for i, in := range p.instrs {
		p.plans[i] = specs[p.kindOf[i]].plan(in)
		fi := &p.finfo[i]
		fi.isBranch = in.Desc.IsBranch()
		fi.conditional = in.Desc.Conditional
		if fi.isBranch && in.Desc.PCRelative {
			if imm := in.Op("imm"); imm != nil {
				fi.targetKnown = true
				fi.target = i + int(imm.Val)
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		switch {
		case p.finfo[i].isBranch:
			p.nextBranch[i] = int32(i)
		case i == n-1:
			p.nextBranch[i] = int32(n)
		default:
			p.nextBranch[i] = p.nextBranch[i+1]
		}
	}
	return p
}

// kindsOf lists the distinct descriptors of instrs in order of first use
// and each instruction's index among them. It finds them through an
// open-addressing table of pointer hashes on the stack, a map beyond
// kindSlots/2 kinds: a Program uses a few dozen.
func kindsOf(instrs []*asm.Instruction) (kinds []*isa.Desc, kindOf []int32) {
	const kindSlots = 512
	var slots [kindSlots]int32 // kind+1, 0 = empty
	var more map[*isa.Desc]int32
	kindOf = make([]int32, len(instrs))
	for i, in := range instrs {
		d := in.Desc
		k := int32(-1)
		if more != nil {
			if v, ok := more[d]; ok {
				k = v
			}
		}
		s := uint64(uintptr(unsafe.Pointer(d))) * 0x9E3779B97F4A7C15 >> 55 // 9 bits: kindSlots
		for ; k < 0 && slots[s] != 0; s = (s + 1) % kindSlots {
			if kinds[slots[s]-1] == d {
				k = slots[s] - 1
			}
		}
		if k < 0 {
			k = int32(len(kinds))
			kinds = append(kinds, d)
			if len(kinds) <= kindSlots/2 {
				slots[s] = k + 1
			} else {
				if more == nil {
					more = make(map[*isa.Desc]int32)
				}
				more[d] = k
			}
		}
		kindOf[i] = k
	}
	return kinds, kindOf
}

// Code returns the assembled program (instructions, labels, data items).
func (p *Program) Code() *asm.Program { return p.code }

// Registers returns the register description the program was assembled
// against.
func (p *Program) Registers() *isa.RegisterFile { return p.regs }

// perInstrBytes approximates what a Program retains per static
// instruction: the assembled instruction with a typical three operands,
// one entry in each plan table, its kind and the fast-forward operation.
const perInstrBytes = int(unsafe.Sizeof(asm.Instruction{}) + 3*unsafe.Sizeof(asm.Operand{}) +
	unsafe.Sizeof(execPlan{}) + unsafe.Sizeof(renamePlan{}) + unsafe.Sizeof(fetchInfo{}) +
	unsafe.Sizeof(ffOp{}) + 3*unsafe.Sizeof(int32(0)))

// RetainedBytes estimates the memory a Program keeps alive: the image
// pages the assembler wrote plus the per-instruction tables. Caches budget
// by it.
func (p *Program) RetainedBytes() int {
	return p.image.RetainedBytes() + len(p.instrs)*perInstrBytes
}

// NewSimulation builds a simulation of the program on the given
// architecture, starting at instruction index entry, on a private
// copy-on-write clone of the image. The architecture's memory must be the one the program was
// assembled into: the image's layout and latencies come with it.
func (p *Program) NewSimulation(cfg *config.CPU, entry int) (*Simulation, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	if cfg.Memory != p.image.Config() {
		return nil, fmt.Errorf("core: program was assembled for memory %+v, architecture has %+v",
			p.image.Config(), cfg.Memory)
	}
	return newSimulation(cfg, p, p.image.Clone(), entry, nil)
}
