package workload

import (
	"testing"

	"riscvsim/sim"
)

// TestParallelEquivalence is the parallel-equivalence gate: every corpus
// workload, run time-parallel at K ∈ {2, 4}, must end in the exact
// architectural state of the serial detailed run — same ArchHash over all
// registers and memory, same a0 checksum, same committed-instruction
// count, same halt story — and the stitched report must telescope to the
// serial committed count. Short workloads may degenerate to fewer workers
// (or to the serial fallback); the equality contract holds regardless of
// how the run was split.
func TestParallelEquivalence(t *testing.T) {
	for _, w := range Corpus() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ref, err := NewMachine(nil, w)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(w.MaxCycles)
			if !ref.Halted() {
				t.Fatalf("serial run did not halt in %d cycles", w.MaxCycles)
			}
			refA0, err := ref.IntReg("a0")
			if err != nil {
				t.Fatal(err)
			}

			for _, k := range []int{2, 4} {
				m, err := NewMachine(nil, w)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.RunParallel(k, sim.ParallelOptions{
					WarmupInstructions: 256,
					MaxCycles:          w.MaxCycles,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if !m.Halted() {
					t.Fatalf("k=%d: machine not halted", k)
				}
				if got, want := m.ArchStateHash(), ref.ArchStateHash(); got != want {
					t.Errorf("k=%d: ArchHash %#x, want %#x (workers=%d healed=%d)",
						k, got, want, res.Workers, res.Healed)
				}
				a0, err := m.IntReg("a0")
				if err != nil {
					t.Fatal(err)
				}
				if a0 != refA0 {
					t.Errorf("k=%d: a0 = %d, want %d", k, a0, refA0)
				}
				if got, want := m.Committed(), ref.Committed(); got != want {
					t.Errorf("k=%d: committed %d, want %d", k, got, want)
				}
				if got, want := m.HaltReason(), ref.HaltReason(); got != want {
					t.Errorf("k=%d: halt reason %q, want %q", k, got, want)
				}
				if got, want := res.Report.Committed, ref.Committed(); got != want {
					t.Errorf("k=%d: stitched committed %d, want %d", k, got, want)
				}
			}
		})
	}
}
