package sim

import (
	"bytes"
	"strings"
	"testing"
)

const snapshotLoop = `
  li t0, 0
  li t1, 1
  li t2, 30000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`

// TestSnapshotRewindMatchesReplay: a snapshot-accelerated rewind must
// land on a machine byte-identical to the paper's from-zero replay, at
// several depths, and forward steps afterwards must stay identical.
func TestSnapshotRewindMatchesReplay(t *testing.T) {
	fast, err := NewFromAsm(DefaultConfig(), snapshotLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	fast.EnableSnapshots(1000)
	slow, err := NewFromAsm(DefaultConfig(), snapshotLoop, "")
	if err != nil {
		t.Fatal(err)
	}

	fast.Run(20_000)
	slow.Run(20_000)
	if fast.Cycle() != slow.Cycle() {
		t.Fatalf("cycle drift before rewinding: %d vs %d", fast.Cycle(), slow.Cycle())
	}
	if fast.SnapshotCount() == 0 {
		t.Fatal("no snapshots retained after 20k cycles at interval 1000")
	}

	for _, target := range []uint64{19_999, 12_345, 999, 17} {
		if err := fast.GotoCycle(target); err != nil {
			t.Fatalf("snapshot rewind to %d: %v", target, err)
		}
		if err := slow.GotoCycle(target); err != nil {
			t.Fatalf("replay rewind to %d: %v", target, err)
		}
		if fh, sh := fast.StateHash(), slow.StateHash(); fh != sh {
			t.Fatalf("state diverged at cycle %d: %016x vs %016x", target, fh, sh)
		}
		// Step forward a few cycles and re-check: the restored pipeline
		// must behave exactly like the replayed one.
		fast.StepN(7)
		slow.StepN(7)
		if fh, sh := fast.StateHash(), slow.StateHash(); fh != sh {
			t.Fatalf("state diverged stepping after rewind to %d", target)
		}
		// Re-align for the next depth.
		fast.Run(20_000 - fast.Cycle())
		slow.Run(20_000 - slow.Cycle())
	}
}

// TestSnapshotStepBack: single-cycle backward steps through snapshots
// keep the canonical cycle-0 error and land on the right cycle.
func TestSnapshotStepBack(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), snapshotLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(500)
	m.Run(5_000)
	for i := 0; i < 3; i++ {
		want := m.Cycle() - 1
		if err := m.StepBack(); err != nil {
			t.Fatal(err)
		}
		if m.Cycle() != want {
			t.Fatalf("StepBack landed on %d, want %d", m.Cycle(), want)
		}
	}

	zero, err := NewFromAsm(DefaultConfig(), snapshotLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	zero.EnableSnapshots(0)
	if err := zero.StepBack(); err == nil {
		t.Error("StepBack at cycle 0 should fail")
	}
}

// TestSnapshotRetentionBound: a long run must not accumulate unbounded
// snapshots; thinning doubles the interval instead.
func TestSnapshotRetentionBound(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), `
  li t0, 0
  li t1, 1
  li t2, 200000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(64)
	m.Run(600_000)
	if got := m.SnapshotCount(); got > defaultMaxSnapshots {
		t.Errorf("%d snapshots retained, bound is %d", got, defaultMaxSnapshots)
	}
	if m.snaps.spacing <= 64 {
		t.Errorf("interval stayed %d; thinning should have doubled it", m.snaps.spacing)
	}
	// The retained set must still accelerate a deep rewind correctly.
	if err := m.GotoCycle(100_000); err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 100_000 {
		t.Errorf("rewind landed on %d", m.Cycle())
	}
}

// TestSnapshotRewindKeepsDebugState: verbose logging switched on after a
// snapshot survives a snapshot-accelerated rewind, so the rewound machine
// keeps logging each commit.
func TestSnapshotRewindKeepsDebugState(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), snapshotLoop, "")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(1000)
	m.Run(10_000)
	m.SetVerboseLog(true)
	if err := m.GotoCycle(9_500); err != nil {
		t.Fatal(err)
	}
	if !m.Sim().VerboseLog {
		t.Fatal("verbose logging lost across the rewind")
	}
	m.Run(20)
	log := m.Log()
	if len(log) == 0 || log[len(log)-1].Cycle <= 9_500 || !strings.HasPrefix(log[len(log)-1].Msg, "commit ") {
		t.Errorf("no commit logged after the rewind; log ends %v", log[max(len(log)-1, 0):])
	}
}

// TestBackwardSimulationMatchesForward: a backward step lands on the
// machine a forward run to the same cycle reaches (the paper's
// determinism argument, §III-B), with snapshots off so the re-run starts
// from cycle 0.
func TestBackwardSimulationMatchesForward(t *testing.T) {
	const src = `
li t0, 0
li t1, 1
li t2, 30
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`
	back, err := NewFromAsm(DefaultConfig(), src, "")
	if err != nil {
		t.Fatal(err)
	}
	back.StepN(40)
	if err := back.StepBack(); err != nil {
		t.Fatal(err)
	}
	fwd, err := NewFromAsm(DefaultConfig(), src, "")
	if err != nil {
		t.Fatal(err)
	}
	fwd.StepN(39)
	if back.Cycle() != 39 || fwd.Cycle() != 39 {
		t.Fatalf("cycles: back=%d fwd=%d", back.Cycle(), fwd.Cycle())
	}
	if bh, fh := back.StateHash(), fwd.StateHash(); bh != fh {
		t.Errorf("state after StepBack %016x, forward run %016x", bh, fh)
	}
	br, fr := back.Report(), fwd.Report()
	if br.Committed != fr.Committed || br.ROBFlushes != fr.ROBFlushes || br.Fetched != fr.Fetched {
		t.Errorf("reports differ: back=%+v fwd=%+v", br, fr)
	}
}

// TestBackwardAtCycleZeroFails: there is nothing before cycle 0, also
// after a rewind has landed there.
func TestBackwardAtCycleZeroFails(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), "nop\nnop\n", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StepBack(); err == nil {
		t.Error("StepBack at cycle 0 should fail")
	}
	m.StepN(2)
	if err := m.GotoCycle(0); err != nil {
		t.Fatal(err)
	}
	if err := m.StepBack(); err == nil || m.Cycle() != 0 {
		t.Errorf("StepBack after rewinding to cycle 0: err %v, cycle %d", err, m.Cycle())
	}
}

// rv32mReplaySrc exercises RV32M corner cases (overflowing division,
// high products of mixed signs) so a replay in another engine than the
// run's would land elsewhere.
const rv32mReplaySrc = `
  li t0, -2147483648
  li t1, -1
  li t2, 1
  li t3, 7
  li a1, 0
loop:
  div a2, t0, t1
  rem a3, t0, t1
  divu a4, t3, t2
  remu a5, t3, t2
  mulh a6, t0, t1
  mulhsu a7, t0, t3
  add a1, a1, a2
  add a1, a1, a6
  addi t3, t3, 3
  addi t2, t2, 1
  li t4, 40
  bne t2, t4, loop
`

// TestReplayKeepsEngineMode: a rewind replays in the engine that
// produced the run, from cycle 0 and from a snapshot alike, and lands
// where a forward run in that engine does.
func TestReplayKeepsEngineMode(t *testing.T) {
	for _, interval := range []uint64{0, 64} {
		m, err := NewFromAsm(DefaultConfig(), rv32mReplaySrc, "")
		if err != nil {
			t.Fatal(err)
		}
		if interval > 0 {
			m.EnableSnapshots(interval)
		}
		m.SetEngineMode(EngineInterpreter)
		m.Run(1_000)
		fwd, err := NewFromAsm(DefaultConfig(), rv32mReplaySrc, "")
		if err != nil {
			t.Fatal(err)
		}
		fwd.SetEngineMode(EngineInterpreter)
		for _, target := range []uint64{150, 9} {
			if err := m.GotoCycle(target); err != nil {
				t.Fatal(err)
			}
			if m.sim.EngineMode() != EngineInterpreter {
				t.Errorf("interval %d: rewind to %d dropped the engine mode: %v", interval, target, m.sim.EngineMode())
			}
			other, err := NewFromAsm(DefaultConfig(), rv32mReplaySrc, "")
			if err != nil {
				t.Fatal(err)
			}
			other.SetEngineMode(EngineInterpreter)
			other.StepN(target)
			if m.StateHash() != other.StateHash() {
				t.Errorf("interval %d: rewind to %d differs from a forward run", interval, target)
			}
		}
		fwd.Run(1_000)
		if err := m.GotoCycle(fwd.Cycle()); err != nil {
			t.Fatal(err)
		}
		if m.StateHash() != fwd.StateHash() {
			t.Errorf("interval %d: re-run after rewinds ends elsewhere", interval)
		}
	}
}

// cycleZeroWriteSrc reads a word written before the first cycle both
// early and late in the run, so a rewind that loses the write changes a0.
const cycleZeroWriteSrc = `
  la t0, data
  lw a0, 0(t0)
  li t1, 0
  li t2, 1500
loop:
  addi t1, t1, 1
  bne t1, t2, loop
  lw t3, 4(t0)
  add a0, a0, t3
  add a0, a0, s1
.data
data: .word 0, 0
`

// newCycleZeroWriter builds cycleZeroWriteSrc with data = {5, 7} and
// s1 = 100 written before the first cycle.
func newCycleZeroWriter(t *testing.T, interval uint64) *Machine {
	t.Helper()
	m, err := NewFromAsm(DefaultConfig(), cycleZeroWriteSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	if interval > 0 {
		m.EnableSnapshots(interval)
	}
	addr, _, _ := m.LookupLabel("data")
	if err := m.WriteMemory(addr, []byte{5, 0, 0, 0, 7, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIntReg("s1", 100); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRewindKeepsCycleZeroWrites: memory and registers written before
// the first cycle are part of the machine's own cycle 0, so a rewind
// below the first snapshot — or with snapshots off — re-runs on them.
// A machine with no such write keeps the Program's pristine start as its
// floor and encodes nothing for it.
func TestRewindKeepsCycleZeroWrites(t *testing.T) {
	for _, interval := range []uint64{0, 1024} {
		m := newCycleZeroWriter(t, interval)
		m.Run(2_000)
		ref := newCycleZeroWriter(t, interval)
		ref.StepN(m.Cycle() - 1)
		if err := m.StepBack(); err != nil {
			t.Fatal(err)
		}
		if m.StateHash() != ref.StateHash() {
			t.Errorf("interval %d: StepBack from the last cycle differs from a forward run", interval)
		}
		if err := m.GotoCycle(200); err != nil {
			t.Fatal(err)
		}
		ref = newCycleZeroWriter(t, interval)
		ref.StepN(200)
		if m.StateHash() != ref.StateHash() {
			t.Errorf("interval %d: rewind to cycle 200 differs from a forward run", interval)
		}
		m.Run(1_000_000)
		if a0, _ := m.IntReg("a0"); !m.Halted() || a0 != 112 {
			t.Errorf("interval %d: re-run after rewinding: halted %v, a0 = %d, want 112", interval, m.Halted(), a0)
		}
		if m.snaps.floor.data == nil {
			t.Errorf("interval %d: floor is the Program's image despite writes at cycle 0", interval)
		}
	}

	plain, err := NewFromAsm(DefaultConfig(), cycleZeroWriteSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(100)
	if err := plain.StepBack(); err != nil {
		t.Fatal(err)
	}
	if plain.snaps.floor.data != nil {
		t.Error("a machine with no write at cycle 0 encoded its floor")
	}
}

// TestRewindKeepsRewrittenCycleZero: cycle 0 is the machine's own also
// when it is rewritten after a rewind there, or arrives in a checkpoint
// taken at cycle 0. Snapshots taken from the cycle 0 it replaced go.
func TestRewindKeepsRewrittenCycleZero(t *testing.T) {
	m := newCycleZeroWriter(t, 256)
	m.Run(1_000)
	if err := m.GotoCycle(0); err != nil {
		t.Fatal(err)
	}
	if err := m.SetIntReg("s1", 200); err != nil {
		t.Fatal(err)
	}
	m.Run(1_000)
	if err := m.GotoCycle(600); err != nil {
		t.Fatal(err)
	}
	m.Run(1_000_000)
	if a0, _ := m.IntReg("a0"); a0 != 212 {
		t.Errorf("rewritten cycle 0: a0 = %d, want 212", a0)
	}

	var buf bytes.Buffer
	if err := newCycleZeroWriter(t, 0).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(300)
	if err := r.GotoCycle(100); err != nil {
		t.Fatal(err)
	}
	r.Run(1_000_000)
	if a0, _ := r.IntReg("a0"); a0 != 112 {
		t.Errorf("checkpoint taken at cycle 0: a0 = %d, want 112", a0)
	}
}

// TestSnapList: one thinning rule (keep every second capture, double the
// spacing) and one search on either axis, with the floor below both.
func TestSnapList(t *testing.T) {
	l := snapList{spacing: 10, bound: 4}
	for i := uint64(1); i <= 5; i++ {
		l.add(snapshot{cycle: 10 * i, committed: 3 * i, data: []byte{byte(i)}})
	}
	var cycles []uint64
	for _, s := range l.above {
		cycles = append(cycles, s.cycle)
	}
	if len(cycles) != 2 || cycles[0] != 20 || cycles[1] != 40 || l.spacing != 20 {
		t.Fatalf("after thinning: cycles %v spacing %d, want [20 40] 20", cycles, l.spacing)
	}
	if got := l.latest(39, byCycle); got.cycle != 20 {
		t.Errorf("latest at or below cycle 39 = %d, want 20", got.cycle)
	}
	if got := l.latest(12, byCommitted); got.cycle != 40 {
		t.Errorf("latest at or below committed 12 = cycle %d, want 40", got.cycle)
	}
	if got := l.latest(5, byCommitted); got.data != nil || got.cycle != 0 {
		t.Errorf("below every capture: %+v, want the floor", got)
	}
}
