package sim

import (
	"strings"
	"testing"

	"riscvsim/internal/costmodel"
)

// Tests for the paper's future-work extensions exposed through the facade:
// pipelined functional units and the cost model (§V).

func TestCostModelAPI(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), `
li t0, 0
li t1, 1
li t2, 20
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
`, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	cr := m.EstimateCost()
	if cr.TotalKGE <= 0 || cr.TotalNanoJ <= 0 {
		t.Fatalf("cost report empty: %+v", cr)
	}
	text := cr.FormatText()
	if !strings.Contains(text, "Chip area") || !strings.Contains(text, "average power") {
		t.Errorf("cost text incomplete:\n%s", text)
	}
	// Area-only estimation without a run.
	area := costmodel.EstimateArea(preset(t, "wide4"))
	if area.TotalKGE <= costmodel.EstimateArea(preset(t, "scalar")).TotalKGE {
		t.Error("wide core should cost more than scalar")
	}
}

func TestPipelinedConfigThroughFacade(t *testing.T) {
	cfg := DefaultConfig()
	for i := range cfg.Units {
		cfg.Units[i].Pipelined = true
	}
	// Export/import preserves the flag.
	data, err := cfg.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Units[0].Pipelined {
		t.Error("Pipelined flag lost in config round trip")
	}
	m, err := newFromC(cfg, "int main() { return 6 * 7; }", 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100_000)
	v, _ := m.IntReg("a0")
	if v != 42 {
		t.Errorf("a0 = %d, want 42", v)
	}
}
