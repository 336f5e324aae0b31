package core

import (
	"testing"

	"riscvsim/internal/config"
)

// pipelinedFPConfig enables internal pipelining on the FP unit — the
// paper's future-work feature (§V).
func pipelinedFPConfig() *config.CPU {
	cfg := config.Default()
	for i := range cfg.Units {
		if cfg.Units[i].Class == "FP" {
			cfg.Units[i].Pipelined = true
		}
	}
	return cfg
}

// fpStream is eight independent FP adds: on a non-pipelined 3-cycle FP
// unit they serialize (~24 cycles of FP occupancy); a pipelined unit
// accepts one per cycle.
const fpStream = `
main:
  la t0, d
  flw f0, 0(t0)
  flw f1, 4(t0)
  fadd.s f2, f0, f1
  fadd.s f3, f0, f1
  fadd.s f4, f0, f1
  fadd.s f5, f0, f1
  fadd.s f6, f0, f1
  fadd.s f7, f0, f1
  fadd.s f8, f0, f1
  fadd.s f9, f0, f1
  ret
.data
d: .float 1.5, 2.5
`

func TestPipelinedFPUnitIsFaster(t *testing.T) {
	plain := runSrcOn(t, config.Default(), fpStream)
	piped := runSrcOn(t, pipelinedFPConfig(), fpStream)
	if piped.Cycle() >= plain.Cycle() {
		t.Errorf("pipelined FP run took %d cycles, non-pipelined %d — pipelining must win on independent FP ops",
			piped.Cycle(), plain.Cycle())
	}
	// Results must be identical.
	if floatReg(t, piped, "f9") != floatReg(t, plain, "f9") {
		t.Error("pipelining changed results")
	}
	if floatReg(t, piped, "f9") != 4.0 {
		t.Errorf("f9 = %v, want 4.0", floatReg(t, piped, "f9"))
	}
}

func TestPipelinedUnitRespectsIssuePort(t *testing.T) {
	// A pipelined unit still accepts at most one instruction per cycle.
	cfg := pipelinedFPConfig()
	sim := buildSim(t, cfg, fpStream)
	maxInFlight := 0
	prevInFlight := 0
	for !sim.Halted() {
		sim.Step()
		for _, fu := range sim.fus {
			if fu.Class().String() == "FP" {
				n := fu.InFlight()
				if n > maxInFlight {
					maxInFlight = n
				}
				if n > prevInFlight+1 {
					t.Fatalf("FP unit accepted %d instructions in one cycle", n-prevInFlight)
				}
				prevInFlight = n
			}
		}
	}
	if maxInFlight < 2 {
		t.Errorf("pipelined FP unit never overlapped instructions (max in-flight %d)", maxInFlight)
	}
}

func TestPipelinedCorrectnessOnPrograms(t *testing.T) {
	// The complex programs must produce identical results with pipelined
	// units everywhere.
	cfg := config.Default()
	for i := range cfg.Units {
		cfg.Units[i].Pipelined = true
	}
	sim := runSrcOn(t, cfg, QuicksortAsm)
	arr, _ := sim.Memory().Lookup("arr")
	want := []int32{-50, -7, -3, 0, 1, 2, 4, 4, 5, 9, 12, 100}
	for i, w := range want {
		v, _ := sim.Memory().ReadRaw(arr.Addr+4*i, 4)
		if int32(v) != w {
			t.Errorf("arr[%d] = %d, want %d", i, int32(v), w)
		}
	}
	poly := runSrcOn(t, cfg, PolymorphismAsm)
	checkInt(t, poly, "s3", 64)
}

func TestPipelinedMixedLatencies(t *testing.T) {
	// A long divide issued before short adds: the adds complete first
	// (out-of-order completion within the unit) and everything retires
	// correctly in order.
	cfg := config.Default()
	for i := range cfg.Units {
		if cfg.Units[i].Name == "FX1" {
			cfg.Units[i].Pipelined = true
		}
	}
	sim := runSrcOn(t, cfg, `
li t0, 100
li t1, 7
div t2, t0, t1     # 16-cycle op on FX1
mul t3, t0, t1     # 3-cycle op, issued later, completes earlier
add t4, t2, t3
`)
	checkInt(t, sim, "t2", 14)
	checkInt(t, sim, "t3", 700)
	checkInt(t, sim, "t4", 714)
}

func TestPipelinedFlushCleansInflight(t *testing.T) {
	// Wrong-path FP ops in a pipelined unit must be squashed on flush.
	cfg := pipelinedFPConfig()
	sim := runSrcOn(t, cfg, `
li t0, 0
li s0, 0
li t2, 20
loop:
  andi t3, t0, 1
  beqz t3, even
  addi s0, s0, 3
  j next
even:
  fadd.s f1, f0, f0
  addi s0, s0, 1
next:
  addi t0, t0, 1
  bne t0, t2, loop
`)
	checkInt(t, sim, "s0", 40) // 10*3 + 10*1
	if sim.Exception() != nil {
		t.Fatalf("exception: %v", sim.Exception())
	}
}
