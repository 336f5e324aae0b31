package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/core"
	"riscvsim/internal/seeds"
	"riscvsim/sim"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(42, GenConfig{})
	b := Generate(42, GenConfig{})
	if a != b {
		t.Fatalf("same seed produced different programs")
	}
	if c := Generate(43, GenConfig{}); c == a {
		t.Fatalf("adjacent seeds produced identical programs")
	}
}

func TestGeneratedProgramsAssembleAndTerminate(t *testing.T) {
	cfg := config.Default()
	for i := 0; i < 200; i++ {
		seed := seeds.Derive(7_000, i)
		src := Generate(seed, GenConfig{})
		m, err := sim.NewFromAsm(cfg, src, "")
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v\n%s", seed, err, src)
		}
		m.Run(DefaultMaxCycles)
		if !m.Halted() {
			t.Fatalf("seed %d did not halt within %d cycles (termination guarantee broken)\n%s",
				seed, DefaultMaxCycles, src)
		}
	}
}

// TestCosimSmoke is the bounded co-simulation gate: >=2,000 generated
// programs across three core widths (1/2/4-wide), each co-simulated on
// every leg of Run (the specialized engine against the forced interpreter
// in lockstep, the fast-forward pair at block boundaries, the time-parallel
// coordinator against the serial run), with zero divergences. Seeds are
// fixed and the shards seed-stable, so the run is fully deterministic on
// any GOMAXPROCS.
func TestCosimSmoke(t *testing.T) {
	const perConfig = 700 // 3 x 700 = 2,100 programs
	configs := []struct {
		name string
		cfg  *config.CPU
		base int64
	}{
		{"scalar", config.Scalar(), 10_000},
		{"default", config.Default(), 20_000},
		{"wide4", config.Wide4(), 30_000},
	}
	const shards = 4
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Seed-stable sharding: shard s covers campaign indices
			// [s*ceil, min((s+1)*ceil, perConfig)), so the union is
			// exactly the perConfig distinct programs [0, perConfig) and
			// every index maps to the same seed regardless of which shard
			// runs it.
			ceil := (perConfig + shards - 1) / shards
			for s := 0; s < shards; s++ {
				start := s * ceil
				end := min(start+ceil, perConfig)
				if start >= end {
					continue
				}
				t.Run("", func(t *testing.T) {
					t.Parallel()
					fails, err := Run(Options{
						N:      end - start,
						Seed:   seeds.Derive(tc.base, start),
						Config: tc.cfg,
					})
					if err != nil {
						t.Fatalf("campaign: %v", err)
					}
					for _, f := range fails {
						t.Errorf("divergence:\n%s", f.Report())
					}
				})
			}
		})
	}
}

// TestCampaignDeterministic pins that a campaign is a pure function of
// (seed, config): two runs see the same programs and the same verdicts.
func TestCampaignDeterministic(t *testing.T) {
	a := Generate(seeds.Derive(500, 3), GenConfig{})
	b := Generate(seeds.Derive(503, 0), GenConfig{})
	if a != b {
		t.Fatalf("Derive is not additive: program 3 of base 500 != program 0 of base 503")
	}
}

// injectedBug corrupts the specialized engine's add results for a subset
// of operand values — roughly 1 in 64 dynamic adds — so random programs
// both find it and shrink well.
func injectedBug(op string, a, b, result int32) int32 {
	if op == "add" && a&0x3f == 0x2a {
		return result + 1
	}
	return result
}

// TestInjectedBugDetectedAndShrunk is the end-to-end proof of the
// tentpole: with a deliberate semantic bug injected into the specialized
// engine only, the lockstep harness detects the divergence, the shrinker
// reduces the failing program to a handful of instructions (<=12), the
// reproducer file carries the exact replay command, and that command's
// seed reproduces the failure from scratch.
func TestInjectedBugDetectedAndShrunk(t *testing.T) {
	core.SetSemanticBugForTesting(injectedBug)
	defer core.SetSemanticBugForTesting(nil)

	dir := t.TempDir()
	fails, err := Run(Options{N: 60, Seed: 424_200, OutDir: dir})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if len(fails) == 0 {
		t.Fatalf("injected semantic bug was not detected in 60 programs")
	}
	f := fails[0]

	if f.Divergence == nil || f.Divergence.Cycle == 0 {
		t.Fatalf("divergence missing its first divergent cycle: %+v", f.Divergence)
	}
	if len(f.Divergence.Window) == 0 {
		t.Errorf("divergence report has no disassembled commit window")
	}

	// Shrink quality: minimal reproducer, still divergent, still ends in
	// the protected ecall.
	n := CountInstructions(f.Shrunk)
	if n > 12 {
		t.Errorf("shrunk reproducer has %d instructions, want <= 12:\n%s", n, f.Shrunk)
	}
	if d, err := Cosim(nil, f.Shrunk, DefaultMaxCycles); err != nil || d == nil {
		t.Errorf("shrunk reproducer no longer diverges (err=%v)", err)
	}
	if !strings.Contains(f.Shrunk, "ecall") {
		t.Errorf("shrinker deleted the protected ecall:\n%s", f.Shrunk)
	}

	// The reproducer file is self-contained: provenance header with the
	// replay command, then the program.
	data, err := os.ReadFile(f.ReproPath)
	if err != nil {
		t.Fatalf("reproducer file: %v", err)
	}
	if !strings.Contains(string(data), f.ReplayCommand()) {
		t.Errorf("reproducer file lacks the replay command %q", f.ReplayCommand())
	}
	if filepath.Dir(f.ReproPath) != dir {
		t.Errorf("reproducer written to %s, want dir %s", f.ReproPath, dir)
	}

	// Replay story: the printed command is `-fuzz-n=1 -fuzz-seed=<seed>`;
	// running exactly that campaign reproduces the same divergence.
	replay, err := Run(Options{N: 1, Seed: f.Seed, NoShrink: true})
	if err != nil {
		t.Fatalf("replay campaign: %v", err)
	}
	if len(replay) != 1 {
		t.Fatalf("replay with derived seed %d found %d failures, want 1", f.Seed, len(replay))
	}
	if replay[0].Divergence.Cycle != f.Divergence.Cycle || replay[0].Divergence.Kind != f.Divergence.Kind {
		t.Errorf("replay divergence (cycle %d, %s) != original (cycle %d, %s)",
			replay[0].Divergence.Cycle, replay[0].Divergence.Kind,
			f.Divergence.Cycle, f.Divergence.Kind)
	}

	// And with the bug cleared, the same program must agree again —
	// proving the divergence was the injected bug, not the harness.
	core.SetSemanticBugForTesting(nil)
	if d, err := Cosim(nil, f.Source, DefaultMaxCycles); err != nil || d != nil {
		t.Errorf("program still diverges with the bug cleared (d=%v, err=%v)", d, err)
	}
}

// TestShrinkKeepsLabelsAndData pins the shrinker's protected-line rules
// on a hand-written program with a trivially checkable predicate.
func TestShrinkKeepsLabelsAndData(t *testing.T) {
	src := `  li x5, 42
  li x6, 7
  add x7, x5, x6
  sub x8, x7, x5
  ecall
.data
arena: .zero 16
`
	got := Shrink(src, func(c string) bool {
		return strings.Contains(c, "add x7") && strings.Contains(c, "ecall")
	})
	if !strings.Contains(got, "add x7") || !strings.Contains(got, "ecall") {
		t.Fatalf("shrink dropped predicate-protected lines:\n%s", got)
	}
	if strings.Contains(got, "sub x8") {
		t.Errorf("shrink kept a deletable line the predicate does not need:\n%s", got)
	}
	if !strings.Contains(got, ".data") || !strings.Contains(got, "arena:") {
		t.Errorf("shrink touched the data section:\n%s", got)
	}
}
