package core

import (
	"fmt"
	"math"
	"slices"

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

	// lat is the unit's row of the machine's unitTables: its latency per
	// static instruction (indexed by PC), so the issue path never does a
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

// unitTables are what the issue stage reads of the units per static
// instruction: in row i of sup (stride words), bit u%64 of word u/64 says
// unit u executes instruction i; lat[u][i] is unit u's latency for it.
// Each unit's maps are consulted once per kind (distinct descriptor), not
// per instruction, and units with the same latencies share one lat row. A
// machine builds its tables and its forks share them: they run the same
// Program on the same units, and nothing writes the tables after
// buildUnitTables.
type unitTables struct {
	stride int
	sup    []uint64
	lat    [][]uint64
}

// buildUnitTables resolves the units of cfg against p's kinds and fills
// the per-instruction tables. It fails when some instruction has no unit
// that executes it.
func buildUnitTables(cfg *config.CPU, p *Program) (*unitTables, error) {
	nu, nk, n := len(cfg.Units), len(p.kinds), len(p.instrs)
	t := &unitTables{stride: (nu + 63) / 64, lat: make([][]uint64, nu)}
	kindSup := make([]uint64, nk*t.stride)
	kindLat := make([]uint64, nu*nk)
	// owner[u] is the first unit whose latencies equal unit u's.
	owner := make([]int, nu)
	for u := range cfg.Units {
		spec := &cfg.Units[u]
		class, err := isa.ParseFUClass(spec.Class)
		if err != nil {
			panic(err) // validated by config.Validate
		}
		lat := kindLat[u*nk : (u+1)*nk]
		for k, d := range p.kinds {
			// Only Accept reads a latency, of an instruction the unit
			// executes; any value does for the others, and 1 lets
			// rows coincide.
			lat[k] = 1
			if d.Unit == class && spec.Supports(d.Name) {
				kindSup[k*t.stride+u>>6] |= 1 << (u & 63)
				lat[k] = uint64(spec.LatencyFor(d.Name))
			}
		}
		owner[u] = u
		for v := 0; v < u; v++ {
			if owner[v] == v && slices.Equal(kindLat[v*nk:(v+1)*nk], lat) {
				owner[u] = v
				break
			}
		}
	}
	t.sup = make([]uint64, n*t.stride)
	for i, k := range p.kindOf {
		row := kindSup[int(k)*t.stride : int(k+1)*t.stride]
		if !slices.ContainsFunc(row, func(w uint64) bool { return w != 0 }) {
			return nil, fmt.Errorf("core: no functional unit executes %s (line %d)", p.instrs[i].Desc.Name, p.instrs[i].Line)
		}
		copy(t.sup[i*t.stride:], row)
	}
	for u := range cfg.Units {
		if owner[u] != u {
			t.lat[u] = t.lat[owner[u]]
			continue
		}
		row, lat := make([]uint64, n), kindLat[u*nk:(u+1)*nk]
		for i, k := range p.kindOf {
			row[i] = lat[k]
		}
		t.lat[u] = row
	}
	return t, nil
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
