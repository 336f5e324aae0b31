package render

import (
	"fmt"
	"strings"
	"testing"

	"riscvsim/sim"
)

const loopSource = `
li t0, 0
li t1, 1
li t2, 50
loop:
  add t0, t0, t1
  addi t1, t1, 1
  lw t3, 0(sp)
  bne t1, t2, loop
`

// midSimMachine is the loop above stepped 20 cycles on cfg.
func midSimMachine(t *testing.T, cfg *sim.Config) *sim.Machine {
	t.Helper()
	m, err := sim.NewFromAsm(cfg, loopSource, "")
	if err != nil {
		t.Fatal(err)
	}
	m.StepN(20)
	return m
}

func midSimSchematic(t *testing.T) string {
	t.Helper()
	m := midSimMachine(t, sim.DefaultConfig())
	return Schematic(m.State(false), m.Sim().Cache().Config())
}

func TestSchematicShowsAllBlocks(t *testing.T) {
	out := midSimSchematic(t)
	for _, want := range []string{
		"Fetch", "Reorder buffer",
		"FX issue window", "FP issue window", "LS issue window", "Branch issue window",
		"Load buffer", "Store buffer",
		"FX registers", "FP registers",
		"L1 cache", "Main memory",
		"cycle 20",
		"IPC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("schematic missing %q", want)
		}
	}
}

func TestSchematicShowsInstructions(t *testing.T) {
	out := midSimSchematic(t)
	// Mid-loop, some instruction text must appear in a block.
	if !strings.Contains(out, "add") && !strings.Contains(out, "bne") {
		t.Errorf("schematic shows no instructions:\n%s", out)
	}
}

func TestSchematicHaltBanner(t *testing.T) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), "nop\n", "")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	out := Schematic(m.State(false), m.Sim().Cache().Config())
	if !strings.Contains(out, "HALTED") {
		t.Error("halted banner missing")
	}
}

// TestSchematicCacheStatus: the state lists only the valid lines, so the
// total in the L1 block's status line is the geometry's, and a machine
// without a cache says so.
func TestSchematicCacheStatus(t *testing.T) {
	statusRow := func(status string) string {
		return fmt.Sprintf("┌─ L1 cache %s┐\n│ %-*s │\n", strings.Repeat("─", blockWidth-len("L1 cache")-2), blockWidth, status)
	}
	if on, want := midSimSchematic(t), statusRow("1/256 lines valid"); !strings.Contains(on, want) {
		t.Errorf("cache on: no status row\n%s\nin\n%s", want, on)
	}
	cfg := sim.DefaultConfig()
	cfg.Cache.Enabled = false
	m := midSimMachine(t, cfg)
	if off, want := Schematic(m.State(false), m.Sim().Cache().Config()), statusRow("off"); !strings.Contains(off, want) {
		t.Errorf("cache off: no status row\n%s\nin\n%s", want, off)
	}
}

func TestSchematicClipping(t *testing.T) {
	if got := clip("short", 10); got != "short" {
		t.Errorf("clip(short) = %q", got)
	}
	if got := clip("averylongstringthatneedsclipping", 10); len([]rune(got)) != 10 {
		t.Errorf("clip length = %d, want 10", len([]rune(got)))
	}
}

func BenchmarkSchematic(b *testing.B) {
	m, err := sim.NewFromAsm(sim.DefaultConfig(), `
li t0, 0
li t1, 1
li t2, 500
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`, "")
	if err != nil {
		b.Fatal(err)
	}
	m.StepN(50)
	st, l1 := m.State(false), m.Sim().Cache().Config()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Schematic(st, l1)
	}
}
