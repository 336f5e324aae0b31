package sim

import (
	"bytes"
	"fmt"

	"riscvsim/internal/ckpt"
)

// Interval snapshots: periodic in-memory checkpoints taken while the
// machine runs forward, so backward simulation restores from the nearest
// snapshot at or below the target and replays only the remainder —
// O(interval) instead of the paper's O(cycle) re-run from zero (§III-B).
// The simulation is deterministic, so a snapshot-restored replay is
// cycle-for-cycle identical to a from-zero replay (pinned by
// TestSnapshotRewindMatchesReplay).
//
// Snapshots are off by default: batch runs never rewind and should not
// pay the encoding cost. Interactive surfaces (server debug sessions, the
// architecture's snapshotInterval knob) turn them on.

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

// snapshot is one retained state capture.
type snapshot struct {
	cycle uint64
	data  []byte
}

// EnableSnapshots turns interval snapshots on. interval is the cycle
// spacing; 0 selects DefaultSnapshotInterval. Already-retained snapshots
// are kept.
func (m *Machine) EnableSnapshots(interval uint64) {
	if interval == 0 {
		interval = DefaultSnapshotInterval
	}
	m.snapInterval = interval
	if m.maxSnaps == 0 {
		m.maxSnaps = defaultMaxSnapshots
	}
}

// DisableSnapshots turns interval snapshots off and drops retained ones.
func (m *Machine) DisableSnapshots() {
	m.snapInterval = 0
	m.snaps = nil
}

// SnapshotInterval returns the configured cycle spacing, 0 when off. The
// spacing can grow over a long run as the retention bound thins old
// snapshots.
func (m *Machine) SnapshotInterval() uint64 { return m.snapInterval }

// SnapshotCount returns the number of retained snapshots.
func (m *Machine) SnapshotCount() int { return len(m.snaps) }

// runForward advances up to maxCycles, pausing at snapshot boundaries to
// capture state. With snapshots off it is exactly the core's Run.
func (m *Machine) runForward(maxCycles uint64) uint64 {
	if m.snapInterval == 0 {
		return m.sim.Run(maxCycles)
	}
	start := m.sim.Cycle()
	for {
		done := m.sim.Cycle() - start
		if done >= maxCycles || m.sim.Halted() || m.sim.Paused() {
			break
		}
		chunk := m.snapInterval - m.sim.Cycle()%m.snapInterval
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
// boundary it has not covered yet.
func (m *Machine) maybeSnapshot() {
	if m.snapInterval == 0 {
		return
	}
	c := m.sim.Cycle()
	if c == 0 || c%m.snapInterval != 0 || m.sim.Halted() || m.sim.Paused() {
		return
	}
	if n := len(m.snaps); n > 0 && m.snaps[n-1].cycle >= c {
		// Re-running over ground an earlier pass covered: the run is
		// deterministic, so the retained snapshots are still valid.
		return
	}
	m.captureSnapshot(c)
}

// forceSnapshot captures state at the current cycle regardless of
// interval alignment — the anchor at an engine-mode transition
// (fastforward.go), where rewinds must be able to land without replaying
// across the fast-forwarded region.
func (m *Machine) forceSnapshot() {
	if m.snapInterval == 0 {
		return
	}
	c := m.sim.Cycle()
	if c == 0 || m.sim.Halted() || m.sim.Paused() {
		return
	}
	if n := len(m.snaps); n > 0 && m.snaps[n-1].cycle >= c {
		return
	}
	m.captureSnapshot(c)
}

// dropSnapshotsBelow discards snapshots older than cycle c — they became
// unreachable when an engine-mode transition at c erased the replayable
// history below it.
func (m *Machine) dropSnapshotsBelow(c uint64) {
	kept := m.snaps[:0]
	for i := range m.snaps {
		if m.snaps[i].cycle >= c {
			kept = append(kept, m.snaps[i])
		}
	}
	for i := len(kept); i < len(m.snaps); i++ {
		m.snaps[i] = snapshot{}
	}
	m.snaps = kept
}

// captureSnapshot encodes and retains the current state at cycle c,
// thinning the retained set when it exceeds the bound.
func (m *Machine) captureSnapshot(c uint64) {
	// Snapshots are in-process and bound to this machine, so only the
	// dynamic state section is encoded — no header, no embedded source,
	// no config round-trip (Machine.Checkpoint stays the portable
	// format).
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	m.sim.EncodeState(w)
	if w.Err() != nil {
		return // never let snapshot bookkeeping break the run
	}
	m.snaps = append(m.snaps, snapshot{cycle: c, data: buf.Bytes()})
	if len(m.snaps) > m.maxSnaps {
		// Thin: keep every second snapshot (those on the doubled
		// interval's boundaries) and double the spacing.
		kept := m.snaps[:0]
		for i := range m.snaps {
			if i%2 == 1 {
				kept = append(kept, m.snaps[i])
			}
		}
		for i := len(kept); i < len(m.snaps); i++ {
			m.snaps[i] = snapshot{}
		}
		m.snaps = kept
		m.snapInterval *= 2
	}
}

// nearestSnapshot returns the index of the youngest snapshot at or below
// target, or -1.
func (m *Machine) nearestSnapshot(target uint64) int {
	best := -1
	for i := range m.snaps {
		if m.snaps[i].cycle > target {
			break
		}
		best = i
	}
	return best
}

// rewindTo repositions the machine at an earlier cycle: restore from the
// nearest snapshot and replay the remainder, falling back to the paper's
// from-zero replay when no snapshot precedes the target. After an
// engine-mode transition (fastforward.go) the cycles below the barrier
// have no timing history and from-zero replay would re-run the
// fast-forwarded region under different semantics of time, so only
// snapshot restores at or above the barrier are sound there.
func (m *Machine) rewindTo(target uint64) error {
	if m.ffBarrier > 0 && target < m.ffBarrier {
		return m.errBelowBarrier(target)
	}
	if m.snapInterval > 0 {
		if i := m.nearestSnapshot(target); i >= 0 && m.snaps[i].cycle >= m.ffBarrier {
			return m.restoreSnapshot(i, target)
		}
	}
	if m.ffBarrier > 0 {
		return fmt.Errorf("sim: cannot replay to cycle %d: replay would cross the fast-forwarded region below cycle %d and no snapshot covers it: %w", target, m.ffBarrier, ErrRewindBarrier)
	}
	ns, err := m.sim.ReplayTo(target)
	if err != nil {
		return err
	}
	m.sim = ns
	return nil
}

// restoreSnapshot rebuilds the simulation from snapshot i and replays
// forward to target. The new simulation is a fork of the machine's
// Program on the same architecture (core.Fresh), so the restore cost is
// one image copy and decoding dynamic state — not re-assembly. Mirrors
// ReplayTo's contract: the catch-up replay never pauses and never
// re-emits trace events; current debug state and the tracer carry over
// afterwards.
func (m *Machine) restoreSnapshot(i int, target uint64) error {
	ns, err := m.sim.Fresh()
	if err != nil {
		return err
	}
	r := ckpt.NewReader(bytes.NewReader(m.snaps[i].data))
	ns.DecodeState(r)
	if err := r.Err(); err != nil {
		return err
	}
	ns.ClearDebugState()
	if target > ns.Cycle() {
		ns.Run(target - ns.Cycle())
	}
	ns.SyncDebugState(m.sim)
	ns.SetTracer(m.sim.Tracer())
	m.sim = ns
	// Retained snapshots stay — determinism keeps them valid for
	// scrubbing forward again.
	return nil
}
