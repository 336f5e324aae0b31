package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/sim"
)

// outcome is everything a finished run is compared by.
type outcome struct {
	stateHash, archHash, cycle uint64
	report                     string
}

func outcomeOf(t testing.TB, m *sim.Machine, rep *sim.Report) outcome {
	t.Helper()
	if !m.Halted() {
		t.Errorf("machine did not halt (cycle %d)", m.Cycle())
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Error(err)
	}
	return outcome{m.StateHash(), m.ArchStateHash(), m.Cycle(), string(data)}
}

// sharingScenarios drive one machine to halt along every path that
// instantiates from the Program again: a plain detailed run, fast-forward
// (whose first use builds the lazy block tables), a backward step across
// an interval snapshot, a time-parallel run (scout, forks and scratch
// machines) and a checkpoint restored through restore.
var sharingScenarios = []struct {
	name  string
	drive func(t testing.TB, m *sim.Machine, max uint64, restore func([]byte) (*sim.Machine, error)) outcome
}{
	{"detailed", func(t testing.TB, m *sim.Machine, max uint64, _ func([]byte) (*sim.Machine, error)) outcome {
		m.Run(max)
		return outcomeOf(t, m, m.Report())
	}},
	{"fast-forward", func(t testing.TB, m *sim.Machine, max uint64, _ func([]byte) (*sim.Machine, error)) outcome {
		m.SetEngineMode(sim.EngineFastForward)
		m.Run(max)
		return outcomeOf(t, m, m.Report())
	}},
	{"step-back", func(t testing.TB, m *sim.Machine, max uint64, _ func([]byte) (*sim.Machine, error)) outcome {
		m.EnableSnapshots(256)
		m.Run(1000)
		if err := m.GotoCycle(700); err != nil { // restores the snapshot at 512, replays 188
			t.Error(err)
		}
		if err := m.StepBack(); err != nil {
			t.Error(err)
		}
		if m.Cycle() != 699 {
			t.Errorf("rewound to cycle %d, want 699", m.Cycle())
		}
		m.Run(max)
		return outcomeOf(t, m, m.Report())
	}},
	{"parallel-k2", func(t testing.TB, m *sim.Machine, max uint64, _ func([]byte) (*sim.Machine, error)) outcome {
		res, err := m.RunParallel(2, sim.ParallelOptions{WarmupInstructions: 1000, MaxCycles: max})
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		if res.Workers != 2 {
			t.Errorf("parallel run used %d workers, want 2", res.Workers)
		}
		return outcomeOf(t, m, res.Report)
	}},
	{"checkpoint-restore", func(t testing.TB, m *sim.Machine, max uint64, restore func([]byte) (*sim.Machine, error)) outcome {
		m.Run(1500)
		var buf bytes.Buffer
		if err := m.Checkpoint(&buf); err != nil {
			t.Error(err)
			return outcome{}
		}
		r, err := restore(buf.Bytes())
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		r.Run(max)
		return outcomeOf(t, r, r.Report())
	}},
}

// TestSharedProgramConcurrentUse: goroutines that take one Program and
// concurrently run every scenario end exactly where an unshared
// sim.NewFromAsm machine driven the same way ends. Run under -race this
// is the check that nothing reachable from a Program is written after it
// is built (CI: race job, -count=5).
func TestSharedProgramConcurrentUse(t *testing.T) {
	w, ok := ByName("sort-insertion")
	if !ok {
		t.Fatal("sort-insertion not in the corpus")
	}
	want := make([]outcome, len(sharingScenarios))
	for i, sc := range sharingScenarios {
		m, err := NewMachine(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sc.drive(t, m, w.MaxCycles, func(data []byte) (*sim.Machine, error) {
			return sim.Restore(bytes.NewReader(data))
		})
	}
	if t.Failed() {
		t.FailNow()
	}

	shared, err := sim.Assemble(w.Source, config.Default().Memory)
	if err != nil {
		t.Fatal(err)
	}
	restoreShared := func(data []byte) (*sim.Machine, error) {
		return sim.RestoreWith(data, func(src string, mem sim.MemoryConfig) (*sim.Program, error) {
			if src != shared.Source() {
				return nil, fmt.Errorf("checkpoint embeds a different source")
			}
			return shared, nil
		})
	}
	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, sc := range sharingScenarios {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := shared.NewMachine(config.Default(), w.Entry)
				if err != nil {
					t.Error(err)
					return
				}
				if got := sc.drive(t, m, w.MaxCycles, restoreShared); got != want[i] {
					t.Errorf("%s on the shared Program: cycle %d state %x arch %x, unshared: cycle %d state %x arch %x (reports equal: %v)",
						sc.name, got.cycle, got.stateHash, got.archHash,
						want[i].cycle, want[i].stateHash, want[i].archHash, got.report == want[i].report)
				}
			}()
		}
	}
	wg.Wait()

	// Eight machines of a Program nothing has instantiated yet, all
	// incrementing every word of a 16-page table the assembler filled —
	// half through the L1, half straight to memory (fast-forward) — so
	// each copies every page before writing it: they end alike, and the
	// image reads afterwards as a twin Program's does.
	var heavy strings.Builder
	heavy.WriteString(`
  la   s0, tab
  li   s1, 0
pass:
  li   t0, 0
  li   t1, 4096
word:
  slli t2, t0, 2
  add  t2, t2, s0
  lw   t3, 0(t2)
  addi t3, t3, 1
  sw   t3, 0(t2)
  addi t0, t0, 1
  blt  t0, t1, word
  addi s1, s1, 1
  li   t4, 3
  blt  s1, t4, pass
  lw   a0, 0(s0)
  ret
.data
.align 6
tab:
`)
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&heavy, ".word %d\n.zero 1020\n", i+1)
	}
	var p, twin *sim.Program
	for _, q := range []**sim.Program{&p, &twin} {
		if *q, err = sim.Assemble(heavy.String(), config.Default().Memory); err != nil {
			t.Fatal(err)
		}
	}
	image := func(p *sim.Program) []byte {
		m, err := p.NewMachine(config.Default(), "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.ReadMemory(0, config.Default().Memory.Size)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var ends [8]outcome
	for i := range ends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := p.NewMachine(config.Default(), "")
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 1 {
				m.SetEngineMode(sim.EngineFastForward)
			}
			m.Run(1 << 20)
			ends[i] = outcomeOf(t, m, m.Report())
		}()
	}
	wg.Wait()
	for i := 2; i < len(ends); i++ {
		if ends[i] != ends[i%2] {
			t.Errorf("store-heavy machine %d ended at cycle %d state %x, machine %d at cycle %d state %x",
				i, ends[i].cycle, ends[i].stateHash, i%2, ends[i%2].cycle, ends[i%2].stateHash)
		}
	}
	if ends[0].archHash != ends[1].archHash {
		t.Error("the detailed and fast-forward machines disagree architecturally")
	}
	if !bytes.Equal(image(p), image(twin)) {
		t.Error("machines running concurrently wrote the Program's image")
	}
}

// TestProgramPristineAfterUse: a store-heavy run to halt plus a direct
// memory write on one machine leave the Program's image untouched — a
// second machine from the same Program starts from the bytes a freshly
// assembled one starts from, and ends where it ends.
func TestProgramPristineAfterUse(t *testing.T) {
	w, _ := ByName("sort-insertion")
	p, err := sim.Assemble(w.Source, config.Default().Memory)
	if err != nil {
		t.Fatal(err)
	}
	size := config.Default().Memory.Size
	image := func(m *sim.Machine) []byte {
		b, err := m.ReadMemory(0, size)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh, err := NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	pristine := image(fresh)
	freshStart := fresh.StateHash()

	first, err := p.NewMachine(config.Default(), w.Entry)
	if err != nil {
		t.Fatal(err)
	}
	first.Run(w.MaxCycles)
	if bytes.Equal(image(first), pristine) {
		t.Fatal("the run changed no memory; the test needs a store-heavy program")
	}
	// What a memFill does: a write through the machine's memory editor.
	if err := first.WriteMemory(size-64, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}

	second, err := p.NewMachine(config.Default(), w.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(second), pristine) {
		t.Error("second machine of a used Program does not start from the pristine image")
	}
	if got := second.StateHash(); got != freshStart {
		t.Errorf("second machine starts at state %x, a freshly assembled one at %x", got, freshStart)
	}
	fresh.Run(w.MaxCycles)
	second.Run(w.MaxCycles)
	if second.StateHash() != fresh.StateHash() {
		t.Error("second machine of a used Program ends in a different state than a freshly assembled one")
	}
}

// bytesPerCall is the mean heap bytes f allocates, over n calls.
func bytesPerCall(n int, f func()) uint64 {
	f() // warm-up: lazy tables, pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestInstantiateSharesTheImage: a fork of a built machine (Fresh: what
// ReplayTo, RunParallel and the snapshot restore behind StepBack build
// on) copies the image's page table, not its pages, and builds no plan
// tables. The bounds sit between this build's cost and the parent's,
// which copied the 64 KiB image per fork (CI: cached build allocation
// gate).
func TestInstantiateSharesTheImage(t *testing.T) {
	w, _ := ByName("sort-insertion")
	m, err := NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	// The page table, the L1's line bookkeeping, rename file, predictor,
	// ROB and windows: measured 27 KB; the parent 116 KB.
	got := bytesPerCall(50, func() {
		if _, err := m.Sim().Fresh(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 40<<10 {
		t.Errorf("Fresh allocates %d bytes, want at most 40 KiB", got)
	}
	t.Logf("Fresh: %d bytes", got)

	m.EnableSnapshots(256)
	m.Run(1000)
	// A backward step decodes the snapshot at 768 into a fork and replays
	// to 999: the fork, the pages and L1 sets the snapshot's delta writes,
	// and the decoded state. Measured 38 KB; the parent 126 KB.
	got = bytesPerCall(50, func() {
		if err := m.StepBack(); err != nil {
			t.Fatal(err)
		}
		m.Step()
	})
	if got > 56<<10 {
		t.Errorf("StepBack allocates %d bytes, want at most 56 KiB", got)
	}
	t.Logf("StepBack: %d bytes", got)
}

// TestCheckpointAllocations: encoding a machine allocates a handful of
// buffers, not one slice per encoded byte. Snapshots, the store's
// write-through and StateHash all take this path. Measured 10; the parent,
// whose Writer.Byte built a slice per call, 649.
func TestCheckpointAllocations(t *testing.T) {
	w, _ := ByName("sort-insertion")
	m, err := NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(3000)
	var buf bytes.Buffer
	got := testing.AllocsPerRun(20, func() {
		buf.Reset()
		if err := m.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if got > 50 {
		t.Errorf("Checkpoint makes %v allocations, want at most 50", got)
	}
}

// TestStepReplyAllocations: on a warm session a forward step's State and
// its encoding allocate a bounded number of objects — the views of what is
// in flight, the register values, the statistics report — and none per
// cache line. Measured 68 on sort-insertion (the parent: 188, and 38 KB
// against 16 KB). A machine nobody looks at keeps no views or fragments at
// all: cache.TestLinesFollowEveryChange and core.TestStepAllocFree hold
// that end (CI: step reply allocation gate).
func TestStepReplyAllocations(t *testing.T) {
	w, _ := ByName("sort-insertion")
	m, err := NewMachine(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(0)
	m.StepN(1500)
	var doc []byte
	reply := func() {
		m.StepN(1)
		if doc, err = m.State(false).AppendJSON(doc[:0]); err != nil {
			t.Fatal(err)
		}
	}
	reply() // sizes doc and builds the first set of fragments
	if got := testing.AllocsPerRun(200, reply); got > 100 {
		t.Errorf("a step reply makes %v allocations, want at most 100", got)
	}
}

// TestStateFollowsEveryMove: whatever moved the machine — single steps
// through store hits, misses and evictions, a jump back across an interval
// snapshot, a restore, a fork, the flush at halt — the next State, encoded
// with the fragments earlier looks left behind, is byte for byte what
// encoding/json writes for the state of a twin restored from a checkpoint
// taken at that moment, which builds every view from scratch.
func TestStateFollowsEveryMove(t *testing.T) {
	for _, name := range []string{"sort-insertion", "memcpy-stream", "stride-thrash"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not in the corpus", name)
		}
		m, err := NewMachine(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableSnapshots(256)
		check := func(where string, m *sim.Machine) {
			t.Helper()
			got, err := m.State(false).AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := m.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			twin, err := sim.Restore(&ckpt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(twin.State(false))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %s at cycle %d: the state shows stale content:\n got %s\nwant %s", name, where, m.Cycle(), got, want)
			}
		}
		check("cycle 0", m)
		m.StepN(600)
		check("after a jump", m)
		for i := 0; i < 200; i++ {
			m.StepN(1)
			check("single step", m)
		}
		if err := m.GotoCycle(500); err != nil { // below the snapshot at 512: restores 256, replays
			t.Fatal(err)
		}
		check("jump back across a snapshot", m)
		if err := m.StepBack(); err != nil {
			t.Fatal(err)
		}
		check("backward step", m)
		m.StepN(40)
		check("forward again", m)

		var ckpt bytes.Buffer
		if err := m.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		restored, err := sim.Restore(&ckpt)
		if err != nil {
			t.Fatal(err)
		}
		check("restored", restored)
		restored.StepN(3)
		check("restored, stepped", restored)

		fork, err := m.Sim().Fresh()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMachine(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fork.State(false).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(fresh.State(false)); !bytes.Equal(got, want) {
			t.Errorf("%s: a fork of a looked-at machine does not show a fresh machine's state", name)
		}

		m.Run(w.MaxCycles)
		if !m.Halted() {
			t.Fatalf("%s did not halt", name)
		}
		check("halted and flushed", m)
	}
}
