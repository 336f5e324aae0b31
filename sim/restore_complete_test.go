package sim_test

import (
	"bytes"
	"slices"
	"testing"

	"riscvsim/internal/core"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// TestRestoreIsComplete checkpoints every corpus run on the three presets
// at cycles 1, 37, 500 and 3,000 and at its end, restores each checkpoint,
// and walks the original and the restored machine together (TwinDiffs):
// every field either side reaches must be equal, or sit in
// RestoreAllowList with a reason. A field no codec writes and no restore
// derives fails here even when no workload's timing depends on it.
func TestRestoreIsComplete(t *testing.T) {
	if stale := sim.StaleAllowListEntries(); len(stale) > 0 {
		t.Errorf("RestoreAllowList names fields no simulation has: %v", stale)
	}
	for _, preset := range []string{"default", "scalar", "wide4"} {
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			cfg, _ := sim.Preset(preset)
			for _, w := range workload.Corpus() {
				m, err := workload.NewMachine(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, cycle := range []uint64{1, 37, 500, 3000, w.MaxCycles} {
					if m.Halted() || m.Cycle() >= cycle {
						continue
					}
					m.StepN(cycle - m.Cycle())
					for _, d := range sim.TwinDiffs(m.Sim(), restoreOf(t, m).Sim()) {
						t.Errorf("%s at cycle %d: %s", w.Name, m.Cycle(), d)
					}
				}
			}
		})
	}
	// A field of the machine that no codec writes is reported.
	t.Run("planted", func(t *testing.T) {
		m, err := workload.NewMachine(sim.DefaultConfig(), workload.Corpus()[0])
		if err != nil {
			t.Fatal(err)
		}
		m.StepN(500)
		type planted struct {
			*core.Simulation
			warmth uint64 // counts something, encoded nowhere
		}
		got := sim.TwinDiffs(planted{m.Sim(), 7}, planted{restoreOf(t, m).Sim(), 0})
		if want := []string{"warmth: 7, twin 0"}; !slices.Equal(got, want) {
			t.Errorf("planted field: diffs %q, want %q", got, want)
		}
	})
}

// restoreOf restores a machine's checkpoint onto its own Program.
func restoreOf(t *testing.T, m *sim.Machine) *sim.Machine {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := sim.RestoreWith(buf.Bytes(), func(string, sim.MemoryConfig) (*sim.Program, error) { return m.Program(), nil })
	if err != nil {
		t.Fatalf("restoring a checkpoint of cycle %d: %v", m.Cycle(), err)
	}
	return r
}
