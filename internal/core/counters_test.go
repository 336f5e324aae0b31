package core

import (
	"testing"

	"riscvsim/internal/config"
)

// Table-driven coverage for the dynamic-instruction-mix counter: the
// committed mix must account for exactly the instructions the program
// retires, bucketed by type, with wrong-path work excluded.
func TestDynamicMixTable(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want map[string]uint64
	}{
		{
			name: "straight-line arithmetic",
			src: `
addi t0, x0, 1
addi t1, x0, 2
add  t2, t0, t1
`,
			want: map[string]uint64{"kArithmetic": 3},
		},
		{
			name: "load store split",
			src: `
addi t0, x0, 64
sw   t0, 0(x0)
lw   t1, 0(x0)
sw   t1, 4(x0)
`,
			want: map[string]uint64{"kArithmetic": 1, "kStore": 2, "kLoad": 1},
		},
		{
			name: "counted loop commits per-iteration branches",
			src: `
addi t0, x0, 0
addi t1, x0, 3
loop:
  addi t0, t0, 1
  bne  t0, t1, loop
`,
			// 2 setup + 3 iterations of (addi, bne).
			want: map[string]uint64{"kArithmetic": 5, "kJumpbranch": 3},
		},
		{
			name: "unconditional jump",
			src: `
addi t0, x0, 7
jal  x0, skip
addi t0, x0, 1
skip:
addi t1, t0, 0
`,
			// The jumped-over addi must not land in the committed mix.
			want: map[string]uint64{"kArithmetic": 2, "kJumpbranch": 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := runSrc(t, c.src)
			got := sim.Report().DynamicMix
			if len(got) != len(c.want) {
				t.Fatalf("dynamic mix = %v, want %v", got, c.want)
			}
			for k, n := range c.want {
				if got[k] != n {
					t.Errorf("dynamic mix[%s] = %d, want %d (full mix %v)", k, got[k], n, got)
				}
			}
		})
	}
}

// TestCommitStallCounter: a multi-cycle operation at the ROB head leaves
// commit waiting, and the counter must see it; a same-shape single-cycle
// program on an idle pipeline must not count spurious stalls.
func TestCommitStallCounter(t *testing.T) {
	// One FP op (latency 3) at the head stalls commit for its latency.
	stalled := runSrc(t, `
fcvt.s.w ft0, x0
fadd.s   ft1, ft0, ft0
`)
	if got := stalled.Report().CommitStalls; got == 0 {
		t.Error("latency-3 FP chain should stall commit at least once")
	}
}

// TestDecodeStallCounter: a tiny ROB behind a slow functional unit fills
// and blocks rename/dispatch; a roomy ROB on the same program does not.
func TestDecodeStallCounter(t *testing.T) {
	src := `
fcvt.s.w ft0, x0
fadd.s ft1, ft0, ft0
fadd.s ft2, ft0, ft0
fadd.s ft3, ft0, ft0
fadd.s ft4, ft0, ft0
fadd.s ft5, ft0, ft0
fadd.s ft6, ft0, ft0
fadd.s ft7, ft0, ft0
`
	small := config.Default()
	small.ROBSize = 4
	small.RenameRegisters = 8
	s := runSrcOn(t, small, src)
	if got := s.Report().DecodeStalls; got == 0 {
		t.Error("4-entry ROB behind a latency-3 FP unit should stall decode")
	}

	roomy := runSrc(t, `
addi t0, x0, 1
addi t1, x0, 2
add  t2, t0, t1
`)
	if got := roomy.Report().DecodeStalls; got != 0 {
		t.Errorf("3 independent single-cycle ops stalled decode %d times", got)
	}
}

// TestRenameStallCounter: with the rename file sized at the validation
// minimum (== ROBSize), committed-but-still-referenced tags exhaust the
// file before the ROB fills, and the rename-stall counter must see it.
func TestRenameStallCounter(t *testing.T) {
	cfg := config.Default()
	cfg.ROBSize = 8
	cfg.RenameRegisters = 8
	src := `
fcvt.s.w ft0, x0
fadd.s ft0, ft0, ft0
fadd.s ft1, ft0, ft0
fadd.s ft2, ft0, ft0
fadd.s ft3, ft0, ft0
fadd.s ft4, ft0, ft0
fadd.s ft5, ft1, ft2
fadd.s ft6, ft3, ft4
fadd.s ft7, ft5, ft6
fadd.s ft0, ft7, ft7
fadd.s ft1, ft0, ft0
fadd.s ft2, ft1, ft1
`
	s := runSrcOn(t, cfg, src)
	c, r := s.Counters(), s.Report()
	if c.Rename.StallsEmpty == 0 {
		t.Errorf("minimum-size rename file should stall allocation (decode stalls %d, commit stalls %d)",
			r.DecodeStalls, r.CommitStalls)
	}
	if r.RenameStalls != c.Rename.StallsEmpty || r.Rename.StallsEmpty != c.Rename.StallsEmpty {
		t.Errorf("report shows renameFullStalls %d and rename.stallsEmpty %d, want the counter's %d",
			r.RenameStalls, r.Rename.StallsEmpty, c.Rename.StallsEmpty)
	}
}
