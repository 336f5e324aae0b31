package core

import (
	"math"

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
	// minDone is the earliest doneAt in inflight (noneDue when empty): the
	// completion sub-step skips a unit with nothing due, the view shows it.
	minDone uint64
	// lastAccept enforces one issue per cycle for pipelined units.
	lastAccept uint64
	hasAccept  bool

	// doneScratch is the reusable ReleaseDone result buffer; its contents
	// are only valid until the next call.
	doneScratch []*SimInstr

	// lat caches the spec's per-mnemonic latency table, pre-resolved per
	// static instruction (indexed by PC) so the issue path never does a
	// string-map lookup.
	lat []uint64

	// stats is this unit's slot of the simulation's statistics ledger,
	// its BusyCycles booked up to bookedAt (settle).
	stats    *stats.FUCounters
	bookedAt uint64

	// head is the encoded start of the unit's FUView (viewHead).
	head string
}

type inflightOp struct {
	si     *SimInstr
	doneAt uint64
}

// NewFU builds a functional unit from its configuration entry that counts
// into st.
func NewFU(spec *config.FUSpec, st *stats.FUCounters) *FU {
	class, err := isa.ParseFUClass(spec.Class)
	if err != nil {
		panic(err) // validated by config.Validate
	}
	return &FU{spec: spec, class: class, minDone: noneDue, stats: st}
}

// noneDue is minDone of an empty unit.
const noneDue = math.MaxUint64

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

// precompute resolves the spec's per-mnemonic maps once per static
// instruction: latencies into lat, and support as bit unit%64 of word
// unit/64 in the instruction's row of sup (stride words each).
func (f *FU) precompute(prog *asm.Program, unit int, sup []uint64, stride int) {
	f.lat = make([]uint64, len(prog.Instructions))
	for i, in := range prog.Instructions {
		if f.class == in.Desc.Unit && f.spec.Supports(in.Desc.Name) {
			sup[i*stride+unit>>6] |= 1 << (unit & 63)
		}
		f.lat[i] = uint64(f.spec.LatencyFor(in.Desc.Name))
	}
}

// settle adds the busy cycles since bookedAt, up to the counted-cycle
// clock, to c.
func (f *FU) settle(c *stats.FUCounters, clock uint64) {
	if len(f.inflight) > 0 {
		c.BusyCycles += clock - f.bookedAt
	}
}

// book settles the unit's own counters to clock; callers book before
// changing inflight.
func (f *FU) book(clock uint64) {
	f.settle(f.stats, clock)
	f.bookedAt = clock
}

// Accept starts executing the instruction (sub-step two of the paper's FU
// model): the semantics are evaluated immediately against the captured
// operands — through the engine's specialized fast path or its interpreter
// fallback — and the result is buffered until the completion sub-step at
// now+latency. Evaluation errors become exceptions attached to the
// instruction and raised at commit.
func (f *FU) Accept(si *SimInstr, now, clock uint64, eng *ExecEngine) {
	if !f.CanAccept(now) {
		panic("core: Accept on busy FU " + f.spec.Name)
	}
	lat := f.lat[si.PC]
	f.book(clock)
	f.inflight = append(f.inflight, inflightOp{si: si, doneAt: now + lat})
	f.minDone = min(f.minDone, now+lat)
	f.lastAccept = now
	f.hasAccept = true
	f.stats.ExecCount++
	si.IssuedAt = now
	si.Phase = PhaseIssued

	eng.Execute(si, now)
}

// ReleaseDone detaches every instruction finishing at or before cycle now,
// in issue order (sub-step one of the FU model). The returned slice is a
// reusable scratch buffer, valid until the next call.
func (f *FU) ReleaseDone(now, clock uint64) []*SimInstr {
	f.book(clock)
	done := f.doneScratch[:0]
	kept := f.inflight[:0]
	f.minDone = noneDue
	for _, op := range f.inflight {
		if now >= op.doneAt {
			done = append(done, op.si)
		} else {
			kept = append(kept, op)
			f.minDone = min(f.minDone, op.doneAt)
		}
	}
	// The tail keeps stale pointers to pooled instructions; nothing reads
	// past the length, and clearing it costs a write barrier per cycle.
	f.inflight = kept
	f.doneScratch = done
	return done
}

// AbortSquashed drops wrong-path instructions after a flush.
func (f *FU) AbortSquashed(clock uint64) {
	f.book(clock)
	kept := f.inflight[:0]
	f.minDone = noneDue
	for _, op := range f.inflight {
		if !op.si.Squashed {
			kept = append(kept, op)
			f.minDone = min(f.minDone, op.doneAt)
		}
	}
	clear(f.inflight[len(kept):])
	f.inflight = kept
}
