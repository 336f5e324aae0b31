package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// ffTestLoop: a 3-instruction prefix, then a 3-instruction loop body, so
// fast-forward block boundaries fall at cycles 3+3k — every multiple of
// 3. The loop leaves a checkable sum in t0 and halts on pipeline empty.
const ffTestLoop = `
  li t0, 0
  li t1, 1
  li t2, 2000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

func ffBuild(t *testing.T) *Machine {
	t.Helper()
	m, err := NewFromAsm(DefaultConfig(), ffTestLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFastForwardPrefixThenDetailed: a fast-forwarded prefix plus a
// detailed suffix must end in exactly the architectural state of an
// all-detailed run — the co-simulation contract of the mode switch.
func TestFastForwardPrefixThenDetailed(t *testing.T) {
	det := ffBuild(t)
	det.Run(2_000_000)
	if !det.Halted() {
		t.Fatal("detailed reference did not halt")
	}

	mixed := ffBuild(t)
	adv := mixed.FastForwardTo(1_000)
	if adv < 1_000 {
		t.Fatalf("FastForwardTo(1000) advanced only %d cycles", adv)
	}
	if mixed.sim.EngineMode() != EngineSpecialized {
		t.Fatalf("engine mode after FastForwardTo = %v, want detailed restored", mixed.sim.EngineMode())
	}
	mixed.Run(2_000_000)
	if !mixed.Halted() {
		t.Fatal("mixed run did not halt")
	}
	if mixed.HaltReason() != det.HaltReason() {
		t.Errorf("halt reason %q, want %q", mixed.HaltReason(), det.HaltReason())
	}
	if got, want := mixed.Committed(), det.Committed(); got != want {
		t.Errorf("committed %d, want %d", got, want)
	}
	if got, want := mixed.ArchStateHash(), det.ArchStateHash(); got != want {
		t.Errorf("ArchStateHash %#x, want %#x (fast-forward prefix changed architectural state)", got, want)
	}
}

// TestFastForwardToPC: the PC-targeted variant must cut the enclosing
// block and stop with the commit point exactly at the requested index.
func TestFastForwardToPC(t *testing.T) {
	m := ffBuild(t)
	ok, adv := m.FastForwardToPC(3, 100_000)
	if !ok {
		t.Fatalf("FastForwardToPC(3) did not reach pc 3 (pc=%d after %d cycles)", m.PC(), adv)
	}
	if m.PC() != 3 {
		t.Fatalf("pc = %d, want 3", m.PC())
	}
	// Resumes in detailed mode and still reaches the reference final state.
	det := ffBuild(t)
	det.Run(2_000_000)
	m.Run(2_000_000)
	if got, want := m.ArchStateHash(), det.ArchStateHash(); got != want {
		t.Errorf("ArchStateHash %#x, want %#x", got, want)
	}
}

// ffSwitchover drives one FF→detailed switchover with snapshots at the
// given interval, requesting the given fast-forward target, and checks
// the rewind contract around the floor it leaves: rewinds within the
// detailed suffix restore exact state, rewinds below the floor are
// refused with the explanatory error.
func ffSwitchover(t *testing.T, interval, target uint64) {
	t.Helper()
	m := ffBuild(t)
	m.EnableSnapshots(interval)
	m.FastForwardTo(target)
	barrier := m.RewindBarrier()
	if barrier == 0 || barrier != m.Cycle() {
		t.Fatalf("rewind barrier = %d after switchover at cycle %d", barrier, m.Cycle())
	}

	// Forward through the detailed suffix, capturing a mid-suffix hash.
	m.Run(450)
	mid := m.Cycle()
	midHash := m.StateHash()
	m.Run(450)

	// Rewind within the suffix: must restore the captured state exactly,
	// whether the floor fell on a snapshot-interval multiple or not.
	if err := m.GotoCycle(mid); err != nil {
		t.Fatalf("GotoCycle(%d) within detailed suffix: %v", mid, err)
	}
	if got := m.StateHash(); got != midHash {
		t.Errorf("StateHash after rewind to %d = %#x, want %#x", mid, got, midHash)
	}

	// Rewinding to the barrier itself must work too.
	if err := m.GotoCycle(barrier); err != nil {
		t.Errorf("GotoCycle(barrier %d): %v", barrier, err)
	}

	// Below the barrier: refused with the stable sentinel and the
	// fast-forward explanation.
	for _, tgt := range []uint64{barrier - 1, 1, 0} {
		err := m.GotoCycle(tgt)
		if err == nil {
			t.Fatalf("GotoCycle(%d) below barrier %d unexpectedly succeeded", tgt, barrier)
		}
		if !errors.Is(err, ErrRewindBarrier) {
			t.Errorf("GotoCycle(%d) error %v does not wrap ErrRewindBarrier", tgt, err)
		}
		if !strings.Contains(err.Error(), "fast-forward") {
			t.Errorf("GotoCycle(%d) error %q does not explain the fast-forwarded region", tgt, err)
		}
	}

	// StepBack from the barrier is a below-barrier rewind.
	if err := m.GotoCycle(barrier); err != nil {
		t.Fatal(err)
	}
	if err := m.StepBack(); !errors.Is(err, ErrRewindBarrier) {
		t.Errorf("StepBack across the rewind barrier: err %v, want ErrRewindBarrier", err)
	}
}

// TestFastForwardSwitchoverOnSnapshotInterval: the mode transition lands
// exactly on a snapshot-interval multiple (block boundaries are at 3+3k
// here, and 300 is one of them).
func TestFastForwardSwitchoverOnSnapshotInterval(t *testing.T) {
	ffSwitchover(t, 300, 300)
}

// TestFastForwardSwitchoverOffSnapshotInterval: the transition lands
// between interval multiples, so only the floor there can anchor suffix
// rewinds.
func TestFastForwardSwitchoverOffSnapshotInterval(t *testing.T) {
	ffSwitchover(t, 300, 301)
}

// TestFastForwardCheckpointRefusesStepBack: a machine in fast-forward
// cannot step back (its replays land on block boundaries), and neither
// can its restore, which resumes in detail from the checkpoint's cycle:
// a detailed replay from cycle 0 would land on a history that never
// happened, with more instructions committed than the machine held.
func TestFastForwardCheckpointRefusesStepBack(t *testing.T) {
	m := ffBuild(t)
	m.SetEngineMode(EngineFastForward)
	m.Run(1000)
	at, held := m.Cycle(), m.Committed()
	if err := m.StepBack(); !errors.Is(err, ErrRewindBarrier) || m.Cycle() != at {
		t.Errorf("StepBack in fast-forward at cycle %d: err %v at cycle %d, want ErrRewindBarrier", at, err, m.Cycle())
	}
	r, err := Restore(bytes.NewReader(checkpointBytes(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.StepBack(); !errors.Is(err, ErrRewindBarrier) {
		t.Errorf("StepBack of the restored machine: err %v, want ErrRewindBarrier (cycle %d, %d committed; it held %d at cycle %d)",
			err, r.Cycle(), r.Committed(), held, at)
	}
}

// TestRestoreKeepsTheFloor: a restored machine refuses rewinds exactly
// where the original does, on a fast-forwarded prefix, a run in
// fast-forward and a time-parallel run: rewinds to the floor and above
// land, rewinds below it return ErrRewindBarrier, and no rewind of either
// machine lands with more instructions committed than it held.
func TestRestoreKeepsTheFloor(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *Machine
	}{
		{"fast-forward prefix", func(t *testing.T) *Machine {
			m := ffBuild(t)
			m.EnableSnapshots(256)
			m.FastForwardTo(1000)
			m.Run(500)
			return m
		}},
		{"fast-forward run", func(t *testing.T) *Machine {
			m := ffBuild(t)
			m.SetEngineMode(EngineFastForward)
			m.Run(1000)
			return m
		}},
		{"time-parallel", func(t *testing.T) *Machine {
			m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunParallel(2, parTestOpts()); err != nil {
				t.Fatal(err)
			}
			return m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.build(t)
			if m.RewindBarrier() == 0 {
				t.Fatalf("floor at cycle 0 after the run (at cycle %d)", m.Cycle())
			}
			r, err := RestoreWith(checkpointBytes(t, m), cachedAssemble(m))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := r.RewindBarrier(), m.RewindBarrier(); got != want {
				t.Errorf("restored floor at cycle %d, the original's at %d", got, want)
			}
			for name, x := range map[string]*Machine{"original": m, "restored": r} {
				held, floor := x.Committed(), x.RewindBarrier()
				for _, target := range []uint64{x.Cycle() - 1, floor, floor - 1, 0} {
					err := x.GotoCycle(target)
					switch {
					case target < floor && !errors.Is(err, ErrRewindBarrier):
						t.Errorf("%s: GotoCycle(%d) below the floor at %d: err %v, want ErrRewindBarrier", name, target, floor, err)
					case target >= floor && err != nil:
						t.Errorf("%s: GotoCycle(%d) at or above the floor at %d: %v", name, target, floor, err)
					case x.Committed() > held:
						t.Errorf("%s: GotoCycle(%d) landed with %d committed; the machine held %d", name, target, x.Committed(), held)
					}
				}
			}
		})
	}
}

// TestWriteAtAMovedFloor: a write at the floor's cycle is part of the
// floor also when leaving fast-forward moved it there, and snapshots
// taken before the write go: a rewind onto the floor, or into the suffix
// run after the write, keeps it.
func TestWriteAtAMovedFloor(t *testing.T) {
	m := ffBuild(t)
	m.EnableSnapshots(64)
	m.FastForwardTo(300)
	floor := m.RewindBarrier()
	m.Run(200)
	if err := m.GotoCycle(floor); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIntReg("t2", 1000); err != nil {
		t.Fatal(err)
	}
	m.Run(200)
	for _, target := range []uint64{floor + 100, floor} {
		if err := m.GotoCycle(target); err != nil {
			t.Fatal(err)
		}
		if t2, _ := m.IntReg("t2"); t2 != 1000 {
			t.Errorf("rewound to cycle %d (floor %d): t2 = %d, want the 1000 written at the floor", target, floor, t2)
		}
	}
}
