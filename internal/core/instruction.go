// Package core implements the superscalar out-of-order processor model:
// fetch, decode/rename, reorder buffer, issue windows, functional units
// with two sub-step execution, load/store buffers with a memory unit
// behind the L1 cache, a branch unit, and forward/backward simulation —
// the simulator architecture of paper §III-A.
package core

import (
	"fmt"

	"riscvsim/internal/asm"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
	"riscvsim/internal/rename"
)

// Phase is the lifecycle stage of a dynamic instruction, shown by the GUI
// in the instruction pop-up (paper Fig. 3).
type Phase uint8

// Instruction phases.
const (
	PhaseFetched Phase = iota
	PhaseDecoded       // renamed and placed in an issue window
	PhaseIssued        // executing in a functional unit
	PhaseMemory        // load/store waiting on the memory subsystem
	PhaseDone          // result written back, awaiting commit
	PhaseCommitted
	PhaseSquashed
)

var phaseNames = [...]string{"fetched", "decoded", "issued", "memory", "done", "committed", "squashed"}

// String names the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// maxSrcOperands is the most renamed sources any instruction reads (the
// fused multiply-adds read rs1, rs2 and rs3); srcs is a fixed inline array
// of that size so dispatching an instruction never allocates.
const maxSrcOperands = 3

// srcOperand is one renamed source operand of a dynamic instruction; its
// name, class and register are slot i of the instruction's rename plan.
type srcOperand struct {
	tag   int32 // speculative register read, or rename.NoTag (architectural)
	valid bool  // the value was available at rename
	// captured is set once the value has been read and the rename
	// reference released.
	captured bool
	value    expr.Value // as seen at rename, then as captured
}

// valueIf returns value when ok, else the zero Value.
func (s *srcOperand) valueIf(ok bool) expr.Value {
	if ok {
		return s.value
	}
	return expr.Value{}
}

// SimInstr is a dynamic instruction instance flowing through the pipeline
// (the paper's simulation code model). It records the timestamps of every
// phase for the GUI's instruction detail pop-up.
type SimInstr struct {
	// ID is the unique dynamic instruction number (fetch order).
	ID uint64
	// Static is the assembled instruction this instance executes.
	Static *asm.Instruction
	// PC is the code index the instruction was fetched from.
	PC int

	Phase Phase

	// Phase completion timestamps in cycles; 0 means "not yet".
	FetchedAt   uint64
	DecodedAt   uint64
	IssuedAt    uint64
	ExecutedAt  uint64
	MemoryAt    uint64
	CommittedAt uint64

	// Renamed operands: the first nsrc slots of srcs are valid.
	srcs [maxSrcOperands]srcOperand
	nsrc uint8
	// Destination rename, when the instruction writes a register.
	hasDest   bool
	destClass isa.RegClass
	// resultReady marks that result has been computed by the FU.
	resultReady bool
	destReg     int
	destTag     int
	destPrev    int
	// result holds the computed destination value until writeback.
	result expr.Value

	// Branch bookkeeping.
	predTarget  int
	actualTgt   int
	predTaken   bool
	predStall   bool // fetch stalled: target unknown at fetch (jalr BTB miss)
	actualTaken bool
	mispredict  bool

	// Memory bookkeeping.
	addrReady bool
	memIssued bool
	effAddr   int
	storeData uint64
	memDoneAt uint64

	// Exception generated during execution, raised at commit (paper
	// §III-B).
	Exc *fault.Exception

	// Squashed marks wrong-path instructions.
	Squashed bool

	robIndex int
}

// IsBranch reports whether the instruction resolves in the branch unit.
func (si *SimInstr) IsBranch() bool { return si.Static.Desc.IsBranch() }

// IsLoad reports whether the instruction reads data memory.
func (si *SimInstr) IsLoad() bool { return si.Static.Desc.IsLoad() }

// IsStore reports whether the instruction writes data memory.
func (si *SimInstr) IsStore() bool { return si.Static.Desc.IsStore() }

// String renders the dynamic instruction for the debug log.
func (si *SimInstr) String() string {
	return fmt.Sprintf("#%d@%d %s", si.ID, si.PC, si.Static.String())
}

// capture reads the source operand values that are available, in order,
// releasing their rename references, and returns the tag of the first one
// that is not yet written back, or rename.NoTag when all are captured.
func (si *SimInstr) capture(rf *rename.File) int {
	for i := 0; i < int(si.nsrc); i++ {
		s := &si.srcs[i]
		if s.captured {
			continue
		}
		if s.tag != rename.NoTag {
			v, ok := rf.Value(int(s.tag))
			if !ok {
				return int(s.tag)
			}
			s.value = v
			rf.Release(int(s.tag))
		}
		s.captured = true
	}
	return rename.NoTag
}

// holdsRefs reports whether a source still holds a rename reference.
func (si *SimInstr) holdsRefs() bool {
	for i := 0; i < int(si.nsrc); i++ {
		if s := &si.srcs[i]; !s.captured && s.tag != rename.NoTag {
			return true
		}
	}
	return false
}

// releaseRefs drops any rename references still held (squash path).
func (si *SimInstr) releaseRefs(rf *rename.File) {
	for i := 0; i < int(si.nsrc); i++ {
		s := &si.srcs[i]
		if !s.captured && s.tag != rename.NoTag {
			rf.Release(int(s.tag))
			s.captured = true
		}
	}
}

// instrEnv adapts a SimInstr to the expression interpreter's Env: operand
// reads come from the captured source values and immediates; assignments
// land in the instruction's pending result. It is used by pointer so the
// engine's single reusable instance converts to expr.Env without boxing.
type instrEnv struct {
	si *SimInstr
	rp *renamePlan // si's: names its source operands
}

// Get implements expr.Env.
func (e *instrEnv) Get(name string) (expr.Value, bool) {
	if name == "pc" {
		return expr.NewInt(int32(e.si.PC)), true
	}
	for i := 0; i < int(e.si.nsrc); i++ {
		if e.rp.srcs[i].name == name {
			return e.si.srcs[i].value, true
		}
	}
	for i := range e.si.Static.Ops {
		op := &e.si.Static.Ops[i]
		if op.Arg.Name == name && op.Arg.Kind != isa.ArgRegInt && op.Arg.Kind != isa.ArgRegFloat {
			return expr.NewInt(int32(op.Val)).Convert(op.Arg.Type), true
		}
	}
	// Destination read-back (rare; e.g. expressions reusing rd).
	if e.si.hasDest && e.si.resultReady {
		if d := e.si.Static.Desc.DestArg(); d != nil && d.Name == name {
			return e.si.result, true
		}
	}
	return expr.Value{}, false
}

// Set implements expr.Env: assignments store the pending destination value,
// converted to the argument's declared type.
func (e *instrEnv) Set(name string, v expr.Value) error {
	d := e.si.Static.Desc.Arg(name)
	if d == nil {
		return fmt.Errorf("core: %s assigns to unknown operand %q", e.si.Static.Desc.Name, name)
	}
	e.si.result = v.Convert(d.Type)
	e.si.resultReady = true
	return nil
}
