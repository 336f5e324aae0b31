package sim_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// trajectoryConfigs are the machine shapes the state trajectory is pinned
// on: the presets, every unit pipelined (several instructions in flight
// per unit) and a rename file no larger than the ROB (rename pressure,
// where the order tags are released in decides later tag numbers).
func trajectoryConfigs() []struct {
	name string
	cfg  *sim.Config
} {
	pipelined := sim.DefaultConfig()
	for i := range pipelined.Units {
		pipelined.Units[i].Pipelined = true
	}
	pressure := sim.DefaultConfig()
	pressure.RenameRegisters = pressure.ROBSize
	presets := sim.Presets()
	return []struct {
		name string
		cfg  *sim.Config
	}{
		{"default", sim.DefaultConfig()},
		{"scalar", presets["scalar"]},
		{"wide4", presets["wide4"]},
		{"pipelined", pipelined},
		{"rename-pressure", pressure},
	}
}

// trajectoryHash folds the machine's StateHash over every cycle of the
// first denseCycles cycles and every sparseEvery-th cycle after that, to
// the end of the run.
func trajectoryHash(t *testing.T, cfg *sim.Config, w workload.Workload) uint64 {
	const denseCycles, sparseEvery = 3000, 256
	m, err := workload.NewMachine(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for !m.Halted() && m.Cycle() < w.MaxCycles {
		m.Step()
		if c := m.Cycle(); c <= denseCycles || c%sparseEvery == 0 || m.Halted() {
			fold(m.StateHash())
		}
	}
	fold(m.Cycle())
	return h.Sum64()
}

// TestStateTrajectoryPinned pins the complete machine state along every
// corpus run on five machine shapes. The golden metrics compare counters
// only at the end of a run; this test proves a pipeline change leaves
// every intermediate state, and so every checkpoint, byte-identical.
// Regenerate (only for an intended timing change) with
// `go test ./sim -run TestStateTrajectoryPinned -update`.
func TestStateTrajectoryPinned(t *testing.T) {
	configs := trajectoryConfigs()
	corpus := workload.Corpus()
	got := make([]string, len(configs)*len(corpus))
	// The shapes are independent machines: run them side by side.
	t.Run("run", func(t *testing.T) {
		for i, c := range configs {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				for j, w := range corpus {
					got[i*len(corpus)+j] = fmt.Sprintf("%s %s %016x", c.name, w.Name, trajectoryHash(t, c.cfg, w))
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "state_trajectory.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("state trajectory drifted: got %q, want %q", got[i], want[i])
		}
	}
}

// TestEveryStateRestores checkpoints every corpus run, and every way a
// machine halts, on every trajectory shape at a spread of cycles and
// requires each checkpoint to restore and re-encode to the same bytes: the
// decoders' cross-checks must accept every state a machine reaches, not
// only the states other tests restore.
func TestEveryStateRestores(t *testing.T) {
	const stride, limit = 53, 4000
	for _, c := range trajectoryConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			check := func(name string, m *sim.Machine) {
				same := func(string, sim.MemoryConfig) (*sim.Program, error) { return m.Program(), nil }
				var buf, again bytes.Buffer
				for !m.Halted() && m.Cycle() < limit {
					m.StepN(stride)
					buf.Reset()
					if err := m.Checkpoint(&buf); err != nil {
						t.Fatal(err)
					}
					r, err := sim.RestoreWith(buf.Bytes(), same)
					if err != nil {
						t.Fatalf("%s at cycle %d: %v", name, m.Cycle(), err)
					}
					again.Reset()
					if err := r.Checkpoint(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
						t.Fatalf("%s at cycle %d: restored machine re-encodes differently (%v)", name, m.Cycle(), err)
					}
				}
			}
			for _, w := range workload.Corpus() {
				m, err := workload.NewMachine(c.cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				check(w.Name, m)
			}
			for _, src := range sim.HaltingPrograms {
				m, err := sim.NewFromAsm(c.cfg, src, "")
				if err != nil {
					t.Fatal(err)
				}
				if check(src, m); !m.Halted() {
					t.Fatalf("%q did not halt", src)
				}
			}
		})
	}
}
