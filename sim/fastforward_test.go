package sim

import (
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
// the rewind contract around the resulting barrier: rewinds within the
// detailed suffix restore exact state, rewinds below the barrier are
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
	// whether the barrier fell on a snapshot-interval multiple or not
	// (the forced snapshot at the transition anchors it either way).
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
// between interval multiples, so only the forced transition snapshot can
// anchor suffix rewinds.
func TestFastForwardSwitchoverOffSnapshotInterval(t *testing.T) {
	ffSwitchover(t, 300, 301)
}
