package sim

import "errors"

// Fast-forward orchestration: run a prefix of the simulation in the
// functional fast-forward engine (core/blockplan.go — fused basic-block
// plans, architectural state only, ~one committed instruction per cycle),
// then continue in the detailed pipeline from the exact commit point. The
// fast-forwarded region has no timing history, so leaving fast-forward
// moves the machine's floor (snapshot.go) to the state it left at:
// backward navigation below it is refused, and rewinds within the
// detailed suffix replay from it.

// FastForwardTo advances the machine to at least the target cycle in
// fast-forward mode, then restores the previous engine mode. Execution
// stops at the first basic-block boundary at or after the target (a block
// is never split mid-run) or on halt. It returns the number of cycles
// advanced. Interval snapshots are not taken inside the fast-forwarded
// region — it has no timing history to rewind into.
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

// RewindBarrier returns the cycle of the machine's floor, the oldest
// state it can return to: 0 unless a fast-forward or time-parallel run
// moved it. In fast-forward it is the current cycle, since fast-forward
// replays land on block boundaries.
func (m *Machine) RewindBarrier() uint64 {
	if m.sim.EngineMode() == EngineFastForward {
		return m.sim.Cycle()
	}
	return m.snaps.floor.cycle
}

// ErrRewindBarrier is the sentinel wrapped by every refusal to navigate
// below the machine's floor. API surfaces dispatch on it with errors.Is
// to return a stable machine-readable code instead of matching message
// text.
var ErrRewindBarrier = errors.New("rewind barrier")
