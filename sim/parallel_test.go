package sim

import (
	"errors"
	"strings"
	"testing"

	"riscvsim/internal/core"
	"riscvsim/internal/expr"
	"riscvsim/internal/isa"
)

// srcParallel is a ~460k-instruction streaming copy loop: long enough to
// split into several intervals with a short warm-up, store-heavy so the
// coherence machinery (store buffer, dirty lines) is load-bearing in the
// boundary hashes.
const srcParallel = `
  li x20, 300
outer:
  li x5, 256
  li x6, 8192
  li x7, 16384
copy:
  lw x8, 0(x6)
  sw x8, 0(x7)
  addi x6, x6, 4
  addi x7, x7, 4
  addi x5, x5, -1
  bne x5, x0, copy
  addi x20, x20, -1
  bne x20, x0, outer
  li a0, 42
  ecall
`

const parTestMaxCycles = 5_000_000

func parTestOpts() ParallelOptions {
	return ParallelOptions{WarmupInstructions: 512, MaxCycles: parTestMaxCycles}
}

func serialReference(t *testing.T) *Machine {
	t.Helper()
	m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(parTestMaxCycles)
	if !m.Halted() {
		t.Fatal("serial reference did not halt")
	}
	return m
}

// TestParallelMatchesSerial: the tentpole invariant — a parallel run ends
// in the bit-exact serial architectural state (hash, a0, committed count,
// halt story), its stitched committed count telescopes exactly, and its
// stitched timing is within the documented warm-up error bound.
func TestParallelMatchesSerial(t *testing.T) {
	ref := serialReference(t)
	refReport := ref.Report()

	for _, k := range []int{2, 4, 8} {
		m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunParallel(k, parTestOpts())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Workers < 2 {
			t.Fatalf("k=%d: degenerated to %d workers", k, res.Workers)
		}
		if res.Healed != 0 {
			t.Errorf("k=%d: %d intervals healed on a clean run", k, res.Healed)
		}
		if !m.Halted() {
			t.Fatalf("k=%d: machine not halted", k)
		}
		if got, want := m.ArchStateHash(), ref.ArchStateHash(); got != want {
			t.Errorf("k=%d: ArchStateHash %#x, want %#x", k, got, want)
		}
		a0, err := m.IntReg("a0")
		if err != nil {
			t.Fatal(err)
		}
		if a0 != 42 {
			t.Errorf("k=%d: a0 = %d, want 42", k, a0)
		}
		if got, want := m.Committed(), ref.Committed(); got != want {
			t.Errorf("k=%d: committed %d, want %d", k, got, want)
		}
		if got, want := m.HaltReason(), ref.HaltReason(); got != want {
			t.Errorf("k=%d: halt reason %q, want %q", k, got, want)
		}
		// Stitched counters: committed telescopes exactly across the
		// interval boundaries.
		if got, want := res.Report.Committed, refReport.Committed; got != want {
			t.Errorf("k=%d: stitched committed %d, want %d", k, got, want)
		}
		// Timing metrics carry only the warm-up approximation.
		relErr := func(got, want uint64) float64 {
			d := float64(got) - float64(want)
			if d < 0 {
				d = -d
			}
			return d / float64(want)
		}
		if e := relErr(res.Report.Cycles, refReport.Cycles); e > 0.05 {
			t.Errorf("k=%d: stitched cycles %d vs serial %d (%.2f%% off)",
				k, res.Report.Cycles, refReport.Cycles, 100*e)
		}
		// Interval accounting is contiguous over [0, N).
		var prev uint64
		for idx, iv := range res.Intervals {
			if iv.Start != prev {
				t.Errorf("k=%d: interval %d starts at %d, want %d", k, idx, iv.Start, prev)
			}
			prev = iv.End
		}
		if prev != ref.Committed() {
			t.Errorf("k=%d: intervals end at %d, want %d", k, prev, ref.Committed())
		}
	}
}

// TestParallelKeepsCycleZeroWrites: the scout and every worker fork
// from the machine's own cycle 0, so memory written before the first
// cycle reaches a parallel run as it reaches the serial one.
func TestParallelKeepsCycleZeroWrites(t *testing.T) {
	fill := make([]byte, 1024)
	for i := range fill {
		fill[i] = byte(i*7 + 1)
	}
	run := func(k int) *Machine {
		m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteMemory(8192, fill); err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			m.Run(parTestMaxCycles)
			return m
		}
		res, err := m.RunParallel(k, parTestOpts())
		if err != nil {
			t.Fatal(err)
		}
		if res.Healed != 0 {
			t.Errorf("%d intervals healed: the scout ran without the writes", res.Healed)
		}
		return m
	}
	ref, par := run(1), run(4)
	if got, want := par.ArchStateHash(), ref.ArchStateHash(); got != want {
		t.Errorf("ArchStateHash %#x, want the serial run's %#x", got, want)
	}
	got, err := par.ReadMemory(16384, len(fill))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(fill) {
		t.Error("the copy loop's destination lacks the bytes written at cycle 0")
	}
}

// TestParallelHealing: corrupt one interval's speculative start state via
// the test hook — verification must detect the mismatch and heal by
// re-running from the exact predecessor state, still ending bit-exact.
func TestParallelHealing(t *testing.T) {
	ref := serialReference(t)
	for _, corrupt := range []int{1, 3} { // middle and last of 4 intervals
		parallelTestCorrupt = func(interval int, s *core.Simulation) {
			if interval == corrupt {
				// x28 (t3) is unused by the program: the corruption
				// survives to every later hash without changing control
				// flow — exactly a wrong speculative start state.
				s.Registers().SetArchValue(isa.RegInt, 28, expr.NewInt(0x0badf00d))
			}
		}
		m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunParallel(4, parTestOpts())
		parallelTestCorrupt = nil
		if err != nil {
			t.Fatalf("corrupt=%d: %v", corrupt, err)
		}
		if res.Healed == 0 {
			t.Fatalf("corrupt=%d: corruption went undetected", corrupt)
		}
		if got, want := m.ArchStateHash(), ref.ArchStateHash(); got != want {
			t.Errorf("corrupt=%d: healed run ArchStateHash %#x, want %#x", corrupt, got, want)
		}
		if got, want := res.Report.Committed, ref.Committed(); got != want {
			t.Errorf("corrupt=%d: stitched committed %d, want %d", corrupt, got, want)
		}
		healedSeen := false
		for _, iv := range res.Intervals {
			healedSeen = healedSeen || iv.Healed
		}
		if !healedSeen {
			t.Errorf("corrupt=%d: no interval marked healed", corrupt)
		}
	}
}

// TestParallelRewindBarrier: the parallel region has no serial timing
// history — backward navigation into it must fail with the stable
// ErrRewindBarrier sentinel, like a fast-forwarded prefix, while landing
// exactly ON the barrier cycle stays legal.
func TestParallelRewindBarrier(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunParallel(2, parTestOpts()); err != nil {
		t.Fatal(err)
	}
	barrier := m.RewindBarrier()
	if barrier != m.Cycle() {
		t.Errorf("barrier at %d, want final cycle %d", barrier, m.Cycle())
	}
	if err := m.StepBack(); !errors.Is(err, ErrRewindBarrier) {
		t.Errorf("StepBack into the parallel region: err %v, want ErrRewindBarrier", err)
	}
	if err := m.GotoCycle(0); !errors.Is(err, ErrRewindBarrier) {
		t.Errorf("GotoCycle(0) into the parallel region: err %v, want ErrRewindBarrier", err)
	}
	if err := m.GotoCycle(barrier - 1); !errors.Is(err, ErrRewindBarrier) {
		t.Errorf("GotoCycle(barrier-1): err %v, want ErrRewindBarrier", err)
	}
	// Landing exactly on the barrier cycle is inside the navigable region.
	if err := m.GotoCycle(barrier); err != nil {
		t.Errorf("GotoCycle(barrier %d): %v", barrier, err)
	}
	if m.Cycle() != barrier {
		t.Errorf("after GotoCycle(barrier): at cycle %d, want %d", m.Cycle(), barrier)
	}
}

// TestParallelDegenerateSerial: a short program cannot amortize warm-up —
// the run falls back to exact serial execution with no barrier.
func TestParallelDegenerateSerial(t *testing.T) {
	const short = `
  li x5, 10
loop:
  addi x5, x5, -1
  bne x5, x0, loop
  li a0, 7
  ecall
`
	ref, err := NewFromAsm(DefaultConfig(), short, "")
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(100_000)

	m, err := NewFromAsm(DefaultConfig(), short, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunParallel(8, ParallelOptions{MaxCycles: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("workers = %d, want 1 (serial fallback)", res.Workers)
	}
	if got, want := m.ArchStateHash(), ref.ArchStateHash(); got != want {
		t.Errorf("ArchStateHash %#x, want %#x", got, want)
	}
	if m.RewindBarrier() != 0 {
		t.Errorf("serial fallback set a rewind barrier at %d", m.RewindBarrier())
	}
	if res.Report.Cycles != ref.Cycle() {
		t.Errorf("serial fallback cycles %d, want %d", res.Report.Cycles, ref.Cycle())
	}
}

// TestParallelValidation: misuse is refused and leaves the machine
// untouched.
func TestParallelValidation(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), srcParallel, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunParallel(4, ParallelOptions{}); err == nil ||
		!strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("MaxCycles=0 accepted: %v", err)
	}
	m.StepN(10)
	if _, err := m.RunParallel(4, parTestOpts()); err == nil ||
		!strings.Contains(err.Error(), "cycle 0") {
		t.Errorf("mid-run machine accepted: %v", err)
	}
	if m.Cycle() != 10 {
		t.Errorf("failed RunParallel moved the machine to cycle %d", m.Cycle())
	}
}
