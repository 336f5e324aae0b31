package fuzz

import (
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/fault"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// TestStackOverflowOnEveryEngine: fib-recursive on a 64-byte call stack
// runs sp below address 0. Every engine reports a stack overflow, the
// co-simulation legs agree on it, and an access below 0 through any
// other base register stays an invalid memory access.
func TestStackOverflowOnEveryEngine(t *testing.T) {
	w, ok := workload.ByName("fib-recursive")
	if !ok {
		t.Fatal("fib-recursive is not in the corpus")
	}
	cfg := config.Default()
	cfg.Memory.CallStackSize = 64
	const nullDeref = "li t0, -8\nsw t0, 0(t0)\n"
	for _, mode := range []sim.EngineMode{sim.EngineSpecialized, sim.EngineInterpreter, sim.EngineFastForward} {
		for _, c := range []struct {
			src  string
			want fault.Kind
		}{{w.Source, fault.StackOverflow}, {nullDeref, fault.InvalidMemoryAccess}} {
			m, err := sim.NewFromAsm(cfg, c.src, "")
			if err != nil {
				t.Fatal(err)
			}
			m.SetEngineMode(mode)
			m.Run(w.MaxCycles)
			if exc := m.Exception(); exc == nil || exc.Kind != c.want {
				t.Errorf("%s: exception %v, want a %s", mode, exc, c.want)
			}
		}
	}
	if d, err := Cosim(cfg, w.Source, w.MaxCycles); err != nil || d != nil {
		t.Errorf("co-simulation of the overflow: %v %v", err, d)
	}
}
