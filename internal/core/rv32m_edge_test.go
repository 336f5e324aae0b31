package core

import (
	"fmt"
	"math"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/fault"
)

// RV32M edge-case semantics, pinned in ALL engines: the specialized
// execPlan fast path, the forced expression interpreter and the fused
// fast-forward block plans must agree on the division-overflow case,
// every division/remainder-by-zero, and all mulh sign combinations — the
// first divergences a co-simulation fuzzer would otherwise find
// (internal/fuzz relies on these being identical).

// rv32mCase is one op applied to (a, b). Either want (a register value)
// or wantExc (an exact exception message) is checked.
type rv32mCase struct {
	op      string
	a, b    int32
	want    int32
	wantExc string
}

func rv32mCases() []rv32mCase {
	const minI32 = math.MinInt32
	mulh := func(a, b int32) int32 { return int32((int64(a) * int64(b)) >> 32) }
	mulhsu := func(a, b int32) int32 { return int32((int64(a) * int64(uint64(uint32(b)))) >> 32) }
	mulhu := func(a, b int32) int32 { return int32((uint64(uint32(a)) * uint64(uint32(b))) >> 32) }

	cases := []rv32mCase{
		// Signed division overflow: quotient wraps to MinInt32, remainder 0.
		{op: "div", a: minI32, b: -1, want: minI32},
		{op: "rem", a: minI32, b: -1, want: 0},
		// Ordinary signed division truncates toward zero.
		{op: "div", a: -7, b: 2, want: -3},
		{op: "rem", a: -7, b: 2, want: -1},
		// Division by zero traps (the paper's deviation from the RISC-V
		// spec) with engine-identical messages.
		{op: "div", a: 17, b: 0, wantExc: "division by zero: integer division 17 / 0"},
		{op: "div", a: minI32, b: 0, wantExc: fmt.Sprintf("division by zero: integer division %d / 0", minI32)},
		{op: "rem", a: -5, b: 0, wantExc: "division by zero: integer remainder -5 % 0"},
		{op: "divu", a: -1, b: 0, wantExc: "division by zero: unsigned division -1 / 0"},
		{op: "remu", a: 123, b: 0, wantExc: "division by zero: unsigned remainder 123 % 0"},
		// Unsigned division treats the bits as uint32.
		{op: "divu", a: -2, b: 3, want: int32(uint32(0xfffffffe) / 3)},
		{op: "remu", a: -2, b: 3, want: int32(uint32(0xfffffffe) % 3)},
	}
	// mulh/mulhsu/mulhu over every sign combination, including the
	// boundary values.
	operands := []int32{3, -3, math.MaxInt32, minI32, -1, 0x10000}
	for _, a := range operands {
		for _, b := range operands {
			cases = append(cases,
				rv32mCase{op: "mulh", a: a, b: b, want: mulh(a, b)},
				rv32mCase{op: "mulhsu", a: a, b: b, want: mulhsu(a, b)},
				rv32mCase{op: "mulhu", a: a, b: b, want: mulhu(a, b)},
			)
		}
	}
	return cases
}

// runRV32MCase runs one case through a full simulation in the given
// engine mode and returns the destination register and the exception.
func runRV32MCase(t *testing.T, mode EngineMode, c rv32mCase) (int32, *fault.Exception) {
	t.Helper()
	src := fmt.Sprintf("li a0, %d\nli a1, %d\n%s a2, a0, a1\n", c.a, c.b, c.op)
	sim := buildSim(t, config.Default(), src)
	sim.SetEngineMode(mode)
	sim.Run(100_000)
	if !sim.Halted() {
		t.Fatalf("%s %d,%d [%s]: did not halt", c.op, c.a, c.b, mode)
	}
	return intReg(t, sim, "a2"), sim.Exception()
}

func TestRV32MEdgeCasesAllEngines(t *testing.T) {
	for _, c := range rv32mCases() {
		c := c
		t.Run(fmt.Sprintf("%s/%d/%d", c.op, c.a, c.b), func(t *testing.T) {
			for _, mode := range []EngineMode{EngineSpecialized, EngineInterpreter, EngineFastForward} {
				got, exc := runRV32MCase(t, mode, c)
				if c.wantExc != "" {
					if exc == nil {
						t.Fatalf("[%s] expected exception %q, got none (a2=%d)", mode, c.wantExc, got)
					}
					if exc.Error() != c.wantExc {
						t.Errorf("[%s] exception = %q, want %q", mode, exc.Error(), c.wantExc)
					}
					continue
				}
				if exc != nil {
					t.Fatalf("[%s] unexpected exception: %v", mode, exc)
				}
				if got != c.want {
					t.Errorf("[%s] %s %d, %d = %d, want %d", mode, c.op, c.a, c.b, got, c.want)
				}
			}
		})
	}
}

// TestEngineModePropagates pins the knob's plumbing: fresh copies — what
// every rewind and fork starts from — inherit the selected engine, so
// rewind paths replay with the semantics that produced the original run
// (sim's TestReplayKeepsEngineMode checks the replay itself).
func TestEngineModePropagates(t *testing.T) {
	sim := buildSim(t, config.Default(), "li a0, 1\nadd a1, a0, a0\n")
	sim.SetEngineMode(EngineInterpreter)
	if sim.EngineMode() != EngineInterpreter {
		t.Fatalf("EngineMode = %v after SetEngineMode(EngineInterpreter)", sim.EngineMode())
	}
	sim.Run(1000)
	fresh, err := sim.Fresh()
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	if fresh.EngineMode() != EngineInterpreter {
		t.Errorf("Fresh dropped the engine mode: %v", fresh.EngineMode())
	}
}
