package workload

import (
	"testing"

	"riscvsim/sim"
)

// TestFastForwardEquivalence is the fast-forward equivalence gate: every
// corpus workload, run end to end in fast-forward functional mode, must
// reach the exact architectural state of the detailed run — same a0
// checksum, same committed-instruction count, same halt story, same
// ArchHash over all registers and memory. Any delta means the block
// plans' semantics drifted from the pipeline's.
func TestFastForwardEquivalence(t *testing.T) {
	for _, w := range Corpus() {
		t.Run(w.Name, func(t *testing.T) {
			det, err := NewMachine(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			det.Run(w.MaxCycles)
			if !det.Halted() {
				t.Fatalf("detailed run did not halt in %d cycles", w.MaxCycles)
			}

			ff, err := NewMachine(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetEngineMode(sim.EngineFastForward)
			ff.Run(w.MaxCycles)
			if !ff.Halted() {
				t.Fatalf("fast-forward run did not halt in %d cycles", w.MaxCycles)
			}

			if got, want := ff.HaltReason(), det.HaltReason(); got != want {
				t.Errorf("halt reason: fast-forward %q, detailed %q", got, want)
			}
			if got, want := ff.Committed(), det.Committed(); got != want {
				t.Errorf("committed instructions: fast-forward %d, detailed %d", got, want)
			}
			ffA0, err := ff.IntReg("a0")
			if err != nil {
				t.Fatal(err)
			}
			detA0, err := det.IntReg("a0")
			if err != nil {
				t.Fatal(err)
			}
			if ffA0 != detA0 {
				t.Errorf("a0 checksum: fast-forward %d, detailed %d", ffA0, detA0)
			}
			if got, want := ff.ArchStateHash(), det.ArchStateHash(); got != want {
				t.Errorf("ArchHash: fast-forward %#x, detailed %#x", got, want)
			}
			// Fast-forward counts one cycle per committed instruction, so
			// its simulated cycle count equals the committed count (plus
			// any drain prefix — none on a from-zero run).
			if got, want := ff.Cycle(), ff.Committed(); got != want {
				t.Errorf("fast-forward cycles %d != committed %d (1 instr = 1 cycle convention)", got, want)
			}
		})
	}
}
