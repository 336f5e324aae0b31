package sim

import (
	"errors"
	"fmt"
)

// Fast-forward orchestration: run a prefix of the simulation in the
// functional fast-forward engine (core/blockplan.go — fused basic-block
// plans, architectural state only, ~one committed instruction per cycle),
// then continue in the detailed pipeline from the exact commit point. The
// fast-forwarded region has no timing history, so the machine records a
// rewind barrier at every mode transition: backward navigation below the
// barrier is refused, and a forced snapshot at the transition keeps
// rewinds within the detailed suffix working.

// FastForwardTo advances the machine to at least the target cycle in
// fast-forward mode, then restores the previous engine mode. Execution
// stops at the first basic-block boundary at or after the target (a block
// is never split mid-run) or on halt. It returns the number of cycles
// advanced. Interval snapshots are not taken inside the fast-forwarded
// region — it has no timing history to rewind into — but one is forced
// at each boundary of the region when snapshots are on.
func (m *Machine) FastForwardTo(target uint64) uint64 {
	start := m.sim.Cycle()
	if target <= start {
		return 0
	}
	m.sealFloor()
	prev := m.sim.EngineMode()
	m.SetEngineMode(EngineFastForward)
	m.sim.Run(target - start)
	m.SetEngineMode(prev)
	return m.sim.Cycle() - start
}

// FastForwardToPC advances in fast-forward mode until the commit point
// reaches the given code index, cutting the enclosing basic block there
// (any PC is a legal block boundary), then restores the previous engine
// mode. maxCycles bounds the search — the PC may never be reached. It
// reports whether the machine stopped exactly at pc.
func (m *Machine) FastForwardToPC(pc int, maxCycles uint64) (bool, uint64) {
	m.sealFloor()
	start := m.sim.Cycle()
	prev := m.sim.EngineMode()
	m.SetEngineMode(EngineFastForward)
	m.sim.SetFFStopPC(pc)
	for m.sim.Cycle()-start < maxCycles && !m.sim.Halted() && m.sim.PC() != pc {
		m.sim.Step()
	}
	m.sim.SetFFStopPC(-1)
	m.SetEngineMode(prev)
	return m.sim.PC() == pc, m.sim.Cycle() - start
}

// ArchStateHash digests the architectural machine state — registers,
// memory, committed-instruction bookkeeping, halt story — excluding all
// timing state. A fast-forwarded run and a detailed run of the same
// program agree on it exactly when they agree architecturally; StateHash
// remains the full cycle-accurate digest within one mode.
func (m *Machine) ArchStateHash() uint64 { return m.sim.ArchHash() }

// RewindBarrier returns the cycle below which backward navigation is
// unavailable because an engine-mode transition erased the timing
// history, 0 when the whole run is rewindable.
func (m *Machine) RewindBarrier() uint64 { return m.ffBarrier }

// noteModeSwitch maintains the rewind barrier: any transition into or out
// of fast-forward at a nonzero cycle makes earlier cycles unreplayable
// (a from-zero replay would re-run them under the new mode's semantics of
// time), so snapshots below the transition are dropped and one is forced
// at the transition point to anchor rewinds in the new region.
func (m *Machine) noteModeSwitch(mode EngineMode) {
	old := m.sim.EngineMode()
	if old == mode || (old != EngineFastForward && mode != EngineFastForward) {
		return
	}
	c := m.sim.Cycle()
	if c == 0 {
		return
	}
	m.ffBarrier = c
	m.snaps.dropBelow(c)
	m.forceSnapshot()
}

// ErrRewindBarrier is the sentinel wrapped by every refusal to navigate
// backward across a region without timing history (a fast-forwarded
// prefix, a time-parallel run). API surfaces dispatch on it with
// errors.Is to return a stable machine-readable code instead of matching
// message text.
var ErrRewindBarrier = errors.New("rewind barrier")

// errBelowBarrier explains a refused rewind across a fast-forwarded region.
func (m *Machine) errBelowBarrier(target uint64) error {
	return fmt.Errorf("sim: cannot rewind to cycle %d: cycles below %d have no timing history (engine-mode switch; fast-forwarded regions cannot be replayed in detail): %w", target, m.ffBarrier, ErrRewindBarrier)
}
