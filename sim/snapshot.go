package sim

import (
	"bytes"
	"fmt"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/core"
)

// One way back: every earlier cycle and every fork a machine reaches is
// a restore from its snapshot list. The paper's backward simulation is a
// deterministic forward re-run (§III-B); the list's floor is the oldest
// state the machine can return to by an exact replay in its current
// engine — its own cycle 0 unless the engine changed (a fast-forwarded
// prefix, a time-parallel run) — and interval snapshots taken while the
// machine runs forward let a rewind restore the nearest entry at or
// below the target and replay only the remainder — O(interval) instead
// of O(cycle). A snapshot-restored replay is cycle-for-cycle identical
// to a replay from the floor (pinned by TestSnapshotRewindMatchesReplay).
// Time-parallel simulation (parallel.go) keeps a list of the same type
// along the committed-instruction axis.
//
// Snapshots are off by default: batch runs never rewind and should not
// pay the encoding cost, so the list holds only its floor. Interactive
// surfaces (server debug sessions) turn them on with EnableSnapshots.

// DefaultSnapshotInterval is the cycle spacing used when snapshots are
// enabled without an explicit interval. Rewind cost is one state decode
// plus on average half an interval of replay; 1024 keeps a backward step
// comfortably under a millisecond on commodity hardware.
const DefaultSnapshotInterval = 1024

// defaultMaxSnapshots bounds the retained snapshot count. When the bound
// is exceeded every other snapshot is dropped and the interval doubles,
// so total memory stays bounded while coverage stays uniform over the
// whole run (classic adaptive checkpointing).
const defaultMaxSnapshots = 32

// snapshot is one retained state capture: where it sits on both axes of
// a run, and its dynamic state section. data == nil is the Program's
// pristine cycle 0, which a fork reaches at no cost.
type snapshot struct {
	cycle, committed uint64
	data             []byte
}

func byCycle(s *snapshot) uint64     { return s.cycle }
func byCommitted(s *snapshot) uint64 { return s.committed }

// snapList is an adaptive snapshot list: the floor, then captures
// ascending on both axes, spacing apart on the axis its user captures
// along. Past bound captures it thins.
type snapList struct {
	floor   snapshot
	above   []snapshot
	spacing uint64
	bound   int
}

// add appends a capture. When the captures exceed the bound, every
// second one is kept (those on the doubled spacing's boundaries) and the
// spacing doubles.
func (l *snapList) add(s snapshot) {
	l.above = append(l.above, s)
	if len(l.above) <= l.bound {
		return
	}
	kept := l.above[:0]
	for i := 1; i < len(l.above); i += 2 {
		kept = append(kept, l.above[i])
	}
	clear(l.above[len(kept):])
	l.above = kept
	l.spacing *= 2
}

// latest returns the youngest entry whose coordinate on axis is at or
// below limit; the floor when no capture is.
func (l *snapList) latest(limit uint64, axis func(*snapshot) uint64) snapshot {
	for i := len(l.above) - 1; i >= 0; i-- {
		if axis(&l.above[i]) <= limit {
			return l.above[i]
		}
	}
	return l.floor
}

// capture encodes s's dynamic state section only: a snapshot is
// in-process and bound to its machine's Program, so it needs no header,
// source or config (Machine.Checkpoint stays the portable format).
func capture(s *core.Simulation) (snapshot, error) {
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	s.EncodeState(w)
	return snapshot{cycle: s.Cycle(), committed: s.Committed(), data: buf.Bytes()}, w.Err()
}

// EnableSnapshots turns interval snapshots on. interval is the cycle
// spacing; 0 selects DefaultSnapshotInterval. Already-retained snapshots
// are kept.
func (m *Machine) EnableSnapshots(interval uint64) {
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	m.snaps.spacing = interval
	if m.snaps.bound == 0 {
		m.snaps.bound = defaultMaxSnapshots
	}
}

// SnapshotCount returns the number of retained snapshots above the floor.
func (m *Machine) SnapshotCount() int { return len(m.snaps.above) }

// sealFloor makes the machine's state the floor of its list before the
// first cycle above the floor runs. Every forward path calls it. When
// nothing was written at the floor's cycle the floor stays as it is (the
// Program's pristine start at no cost); otherwise the state is encoded
// once.
func (m *Machine) sealFloor() {
	if m.dirtyFloor {
		m.moveFloor()
	}
}

// moveFloor makes the current state the floor. Captures go with the
// floor they were replayed from: those below the new floor are out of
// reach, and those above it belong to a history the new floor does not
// lead to.
func (m *Machine) moveFloor() {
	m.dirtyFloor = false
	if f, err := capture(m.sim); err == nil {
		m.snaps.floor = f
		m.snaps.above = nil
	}
}

// runForward advances up to maxCycles, pausing at snapshot boundaries to
// capture state. With snapshots off it is exactly the core's Run.
func (m *Machine) runForward(maxCycles uint64) uint64 {
	m.sealFloor()
	if m.snaps.spacing == 0 {
		return m.sim.Run(maxCycles)
	}
	start := m.sim.Cycle()
	for {
		done := m.sim.Cycle() - start
		if done >= maxCycles || m.sim.Halted() {
			break
		}
		chunk := m.snaps.spacing - m.sim.Cycle()%m.snaps.spacing
		if rem := maxCycles - done; chunk > rem {
			chunk = rem
		}
		if m.sim.Run(chunk) == 0 {
			break
		}
		m.maybeSnapshot()
	}
	return m.sim.Cycle() - start
}

// maybeSnapshot captures state when the machine sits on a snapshot
// boundary it has not covered yet. Fast-forward takes none: a machine
// in it cannot rewind, and leaving it moves the floor.
func (m *Machine) maybeSnapshot() {
	c := m.sim.Cycle()
	if m.snaps.spacing == 0 || c%m.snaps.spacing != 0 || c == 0 || m.sim.Halted() ||
		m.sim.EngineMode() == EngineFastForward {
		return
	}
	if n := len(m.snaps.above); n > 0 && m.snaps.above[n-1].cycle >= c {
		// Re-running over ground an earlier pass covered: the run is
		// deterministic, so the retained snapshots are still valid.
		return
	}
	if s, err := capture(m.sim); err == nil { // never let snapshot bookkeeping break the run
		m.snaps.add(s)
	}
}

// rewindTo repositions the machine at an earlier cycle from the youngest
// list entry at or below it. A target below the floor is refused, and
// so is a replay that commits more instructions on its way than the
// machine holds: that state is not the floor's future (a hostile
// checkpoint can pair the two).
func (m *Machine) rewindTo(target uint64) error {
	if floor := m.RewindBarrier(); target < floor {
		return fmt.Errorf("sim: cannot rewind to cycle %d: the oldest state this machine can return to is cycle %d (fast-forward and time-parallel runs leave no cycle-exact history to replay): %w", target, floor, ErrRewindBarrier)
	}
	ns, err := m.restore(m.snaps.latest(target, byCycle), target)
	if err != nil {
		return err
	}
	if ns.Committed() > m.sim.Committed() {
		return fmt.Errorf("sim: cannot rewind to cycle %d: the replay from the floor commits %d instructions by then, more than the %d this machine holds: %w", target, ns.Committed(), m.sim.Committed(), ErrRewindBarrier)
	}
	m.adopt(ns)
	return nil
}

// restore is the one way to an earlier cycle or a fork: a new simulation
// of the machine's Program on its architecture (core.Fresh: one page
// table copy, nothing assembled again) given from's state, then replayed
// to cycle target. With no tracer attached the replay emits nothing. A
// start from cycle 0 runs with the machine's current verbosity. Rewinds
// adopt the result; the time-parallel scout, workers and hashes keep it
// as a fork.
func (m *Machine) restore(from snapshot, target uint64) (*core.Simulation, error) {
	ns, err := m.sim.Fresh()
	if err != nil {
		return nil, err
	}
	if from.data != nil {
		r := ckpt.NewReader(bytes.NewReader(from.data))
		ns.DecodeState(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if from.cycle == 0 {
		ns.VerboseLog = m.sim.VerboseLog
	}
	if target > ns.Cycle() {
		ns.Run(target - ns.Cycle())
	}
	return ns, nil
}

// adopt makes ns the machine's simulation. Verbosity and the tracer
// carry over from the one it replaces; retained snapshots stay, since
// determinism keeps them valid for scrubbing forward again.
func (m *Machine) adopt(ns *core.Simulation) {
	ns.VerboseLog = m.sim.VerboseLog
	ns.SetTracer(m.sim.Tracer())
	m.sim = ns
}
