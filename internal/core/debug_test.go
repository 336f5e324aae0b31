package core

import (
	"strings"
	"testing"

	"riscvsim/internal/config"
)

func TestBreakpointPausesAtCommit(t *testing.T) {
	sim := buildSim(t, config.Default(), `
li t0, 1
li t1, 2
add t2, t0, t1
li t3, 4
`)
	if err := sim.AddBreakpoint(2); err != nil {
		t.Fatal(err)
	}
	sim.Run(10_000)
	if !sim.Paused() {
		t.Fatal("simulation should pause at the breakpoint")
	}
	if !strings.Contains(sim.PauseReason(), "pc=2") {
		t.Errorf("pause reason = %q", sim.PauseReason())
	}
	// The breakpointed instruction has not committed: t2 still 0.
	checkInt(t, sim, "t2", 0)
	// Older instructions committed.
	checkInt(t, sim, "t0", 1)
	checkInt(t, sim, "t1", 2)

	// Resume continues past the trigger to completion.
	sim.Resume()
	sim.Run(10_000)
	if !sim.Halted() {
		t.Fatal("should halt after resume")
	}
	checkInt(t, sim, "t2", 3)
	checkInt(t, sim, "t3", 4)
}

func TestBreakpointInLoopHitsRepeatedly(t *testing.T) {
	sim := buildSim(t, config.Default(), `
li t0, 0
li t1, 5
loop:
  addi t0, t0, 1    # pc=2: breakpoint
  bne t0, t1, loop
`)
	if err := sim.AddBreakpoint(2); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for !sim.Halted() && hits < 20 {
		sim.Run(100_000)
		if sim.Paused() {
			hits++
			sim.Resume()
		}
	}
	if hits != 5 {
		t.Errorf("breakpoint hit %d times, want 5 (one per iteration)", hits)
	}
	checkInt(t, sim, "t0", 5)
}

func TestBreakpointValidation(t *testing.T) {
	sim := buildSim(t, config.Default(), "nop\n")
	if err := sim.AddBreakpoint(99); err == nil {
		t.Error("out-of-range breakpoint should fail")
	}
	if err := sim.AddBreakpoint(-1); err == nil {
		t.Error("negative breakpoint should fail")
	}
	if err := sim.AddBreakpoint(0); err != nil {
		t.Errorf("valid breakpoint rejected: %v", err)
	}
	if got := sim.Breakpoints(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Breakpoints() = %v", got)
	}
	sim.RemoveBreakpoint(0)
	if len(sim.Breakpoints()) != 0 {
		t.Error("RemoveBreakpoint failed")
	}
}

func TestWatchpointPausesOnStore(t *testing.T) {
	sim := buildSim(t, config.Default(), `
la t0, buf
li t1, 11
sw t1, 0(t0)      # does not touch the watch
li t2, 22
sw t2, 8(t0)      # watched!
li t3, 33
.data
buf: .zero 16
`)
	addr, ok := sim.Memory().Lookup("buf")
	if !ok {
		t.Fatal("buf missing")
	}
	if err := sim.AddWatch(addr.Addr+8, 4); err != nil {
		t.Fatal(err)
	}
	sim.Run(100_000)
	if !sim.Paused() {
		t.Fatal("watchpoint should pause")
	}
	if !strings.Contains(sim.PauseReason(), "watch hit") {
		t.Errorf("pause reason = %q", sim.PauseReason())
	}
	// The watched store has committed (watch fires after commit).
	sim.Resume()
	sim.Run(100_000)
	if !sim.Halted() {
		t.Fatal("should finish after resume")
	}
	checkInt(t, sim, "t3", 33)
	v, _ := sim.Memory().ReadRaw(addr.Addr+8, 4)
	if v != 22 {
		t.Errorf("watched word = %d, want 22", v)
	}
}

func TestWatchValidation(t *testing.T) {
	sim := buildSim(t, config.Default(), "nop\n")
	if err := sim.AddWatch(-1, 4); err == nil {
		t.Error("negative watch should fail")
	}
	if err := sim.AddWatch(0, 0); err == nil {
		t.Error("empty watch should fail")
	}
	if err := sim.AddWatch(1<<30, 4); err == nil {
		t.Error("out-of-memory watch should fail")
	}
	if err := sim.AddWatch(0, 4); err != nil {
		t.Errorf("valid watch rejected: %v", err)
	}
}

func TestPausedStateIsInert(t *testing.T) {
	sim := buildSim(t, config.Default(), "li t0, 1\nli t1, 2\n")
	sim.AddBreakpoint(1)
	sim.Run(10_000)
	if !sim.Paused() {
		t.Fatal("should pause")
	}
	at := sim.Cycle()
	sim.Step() // must be a no-op while paused
	if sim.Cycle() != at {
		t.Error("Step advanced a paused simulation")
	}
}

// TestLogBoundKeepsNewest: the debug log holds at most logBound entries
// and trimming keeps the newest.
func TestLogBoundKeepsNewest(t *testing.T) {
	sim := buildSim(t, config.Default(), `
  addi t0, x0, 0
  addi t1, x0, 2000
loop:
  addi t0, t0, 1
  andi t2, t0, 1
  bne  t2, x0, skip
  addi t3, x0, 7
skip:
  bne  t0, t1, loop
`)
	sim.VerboseLog = true // a line per commit
	sim.Run(1_000_000)
	if !sim.Halted() || sim.Committed() <= logBound {
		t.Fatalf("halted %v after %d commits; the run must overflow the %d-entry log", sim.Halted(), sim.Committed(), logBound)
	}
	log := sim.Log()
	if len(log) == 0 || len(log) > logBound {
		t.Fatalf("log has %d entries, bound is %d", len(log), logBound)
	}
	// The final halt line is the newest entry and must have survived.
	if last := log[len(log)-1]; last.Cycle != sim.Cycle() || !strings.HasPrefix(last.Msg, "halt:") {
		t.Errorf("newest log entry is %q from cycle %d, machine halted at %d (oldest-kept semantics?)",
			last.Msg, last.Cycle, sim.Cycle())
	}
}
