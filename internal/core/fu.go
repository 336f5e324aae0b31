package core

import (
	"riscvsim/internal/asm"
	"riscvsim/internal/config"
	"riscvsim/internal/isa"
	"riscvsim/internal/stats"
)

// FU is one functional unit. Its simulation is divided into two sub-steps
// so it can complete the current instruction and load the next one within
// a single clock cycle (paper §III-A).
//
// By default units are not internally pipelined, matching the paper's
// stated limitation. Setting the unit's Pipelined flag (this repo's
// implementation of the paper's future-work item, §V) lets the unit accept
// one new instruction per cycle while earlier ones are still completing.
type FU struct {
	spec  *config.FUSpec
	class isa.FUClass

	// inflight holds executing instructions in issue order; a
	// non-pipelined unit holds at most one.
	inflight []inflightOp
	// lastAccept enforces one issue per cycle for pipelined units.
	lastAccept uint64
	hasAccept  bool

	// doneScratch is the reusable ReleaseDone result buffer; its contents
	// are only valid until the next call.
	doneScratch []*SimInstr

	// sup/lat cache the spec's per-mnemonic support and latency tables,
	// pre-resolved per static instruction (indexed by PC) so the issue
	// path never does a string-map lookup.
	sup []bool
	lat []uint64

	// Statistics: count is this unit's part of the ledger (stats.Counters).
	count       stats.FUCounters
	totalCycles uint64

	// head is the encoded start of the unit's FUView (viewHead).
	head string
}

type inflightOp struct {
	si     *SimInstr
	doneAt uint64
}

// NewFU builds a functional unit from its configuration entry.
func NewFU(spec *config.FUSpec) *FU {
	class, err := isa.ParseFUClass(spec.Class)
	if err != nil {
		panic(err) // validated by config.Validate
	}
	return &FU{spec: spec, class: class}
}

// Name returns the unit's display name.
func (f *FU) Name() string { return f.spec.Name }

// Class returns the unit's instruction class.
func (f *FU) Class() isa.FUClass { return f.class }

// viewHead returns the encoded name and class every FUView of the unit
// opens with, built on first use.
func (f *FU) viewHead() string {
	if f.head == "" {
		f.head = string(fuHead(nil, f.spec.Name, f.class.String()))
	}
	return f.head
}

// Busy reports whether any instruction occupies the unit.
func (f *FU) Busy() bool { return len(f.inflight) > 0 }

// InFlight returns the number of executing instructions.
func (f *FU) InFlight() int { return len(f.inflight) }

// CanAccept reports whether the unit can start a new instruction at cycle
// now: a free unit always can; a pipelined unit additionally requires its
// single issue port (one accept per cycle).
func (f *FU) CanAccept(now uint64) bool {
	if len(f.inflight) == 0 {
		return true
	}
	if !f.spec.Pipelined {
		return false
	}
	return !f.hasAccept || f.lastAccept != now
}

// Current returns the oldest executing instruction, or nil (GUI display).
func (f *FU) Current() *SimInstr {
	if len(f.inflight) == 0 {
		return nil
	}
	return f.inflight[0].si
}

// nextDone returns the earliest completion cycle (display).
func (f *FU) nextDone() uint64 {
	var min uint64
	for i, op := range f.inflight {
		if i == 0 || op.doneAt < min {
			min = op.doneAt
		}
	}
	return min
}

// precompute resolves the spec's per-mnemonic support and latency maps
// once per static instruction, so the per-cycle issue path is two array
// reads. Called by the simulation constructor.
func (f *FU) precompute(prog *asm.Program) {
	f.sup = make([]bool, len(prog.Instructions))
	f.lat = make([]uint64, len(prog.Instructions))
	for i, in := range prog.Instructions {
		f.sup[i] = f.spec.Supports(in.Desc.Name)
		f.lat[i] = uint64(f.spec.LatencyFor(in.Desc.Name))
	}
}

// Supports reports whether this unit can execute the instruction.
func (f *FU) Supports(si *SimInstr) bool {
	if f.sup != nil {
		return f.class == si.Static.Desc.Unit && f.sup[si.PC]
	}
	return f.class == si.Static.Desc.Unit && f.spec.Supports(si.Static.Desc.Name)
}

// latencyFor returns the unit's latency for the instruction.
func (f *FU) latencyFor(si *SimInstr) uint64 {
	if f.lat != nil {
		return f.lat[si.PC]
	}
	return uint64(f.spec.LatencyFor(si.Static.Desc.Name))
}

// Accept starts executing the instruction (sub-step two of the paper's FU
// model): the semantics are evaluated immediately against the captured
// operands — through the engine's specialized fast path or its interpreter
// fallback — and the result is buffered until the completion sub-step at
// now+latency. Evaluation errors become exceptions attached to the
// instruction and raised at commit.
func (f *FU) Accept(si *SimInstr, now uint64, eng *ExecEngine) {
	if !f.CanAccept(now) {
		panic("core: Accept on busy FU " + f.spec.Name)
	}
	lat := f.latencyFor(si)
	f.inflight = append(f.inflight, inflightOp{si: si, doneAt: now + lat})
	f.lastAccept = now
	f.hasAccept = true
	f.count.ExecCount++
	f.totalCycles += lat
	si.IssuedAt = now
	si.Phase = PhaseIssued

	eng.Execute(si, now)
}

// ReleaseDone detaches every instruction finishing at or before cycle now,
// in issue order (sub-step one of the FU model). The returned slice is a
// reusable scratch buffer, valid until the next call.
func (f *FU) ReleaseDone(now uint64) []*SimInstr {
	done := f.doneScratch[:0]
	kept := f.inflight[:0]
	for _, op := range f.inflight {
		if now >= op.doneAt {
			done = append(done, op.si)
		} else {
			kept = append(kept, op)
		}
	}
	for i := len(kept); i < len(f.inflight); i++ {
		f.inflight[i] = inflightOp{}
	}
	f.inflight = kept
	f.doneScratch = done
	return done
}

// AbortSquashed drops wrong-path instructions after a flush.
func (f *FU) AbortSquashed() {
	kept := f.inflight[:0]
	for _, op := range f.inflight {
		if !op.si.Squashed {
			kept = append(kept, op)
		}
	}
	for i := len(kept); i < len(f.inflight); i++ {
		f.inflight[i] = inflightOp{}
	}
	f.inflight = kept
}

// CountBusy accumulates the busy-cycle statistic; called once per cycle.
func (f *FU) CountBusy() {
	if len(f.inflight) > 0 {
		f.count.BusyCycles++
	}
}
