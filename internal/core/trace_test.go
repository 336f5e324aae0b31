package core

import (
	"strings"
	"testing"

	"riscvsim/internal/config"
	"riscvsim/internal/trace"
)

const tracedLoop = `
addi t0, x0, 0
addi t1, x0, 4
loop:
  addi t0, t0, 1
  bne  t0, t1, loop
sw t0, 0(x0)
lw t2, 0(x0)
`

// tracedRun runs src to completion with an unfiltered ring attached.
func tracedRun(t *testing.T, src string) (*Simulation, *trace.Ring) {
	t.Helper()
	sim := buildSim(t, config.Default(), src)
	ring := trace.NewRing(1<<14, trace.NoFilter)
	sim.SetTracer(ring)
	sim.Run(2_000_000)
	if !sim.Halted() {
		t.Fatal("program did not halt")
	}
	return sim, ring
}

func TestTraceLifecycleOrdered(t *testing.T) {
	sim, ring := tracedRun(t, tracedLoop)
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	// Events arrive in nondecreasing cycle order.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("event %d cycle %d precedes event %d cycle %d",
				i, events[i].Cycle, i-1, events[i-1].Cycle)
		}
	}

	lts := trace.Lifetimes(events)
	// Every committed instruction's lifetime must visit fetch, decode,
	// rename, dispatch, issue, execute and commit in nondecreasing cycles.
	order := []trace.Stage{
		trace.StageFetch, trace.StageDecode, trace.StageRename,
		trace.StageDispatch, trace.StageIssue, trace.StageExecute,
		trace.StageCommit,
	}
	committed := 0
	for _, lt := range lts {
		if lt.Squashed || lt.Stages[trace.StageCommit] == 0 {
			continue
		}
		committed++
		prev := uint64(0)
		for _, st := range order {
			c := lt.Stages[st]
			if c == 0 {
				t.Fatalf("instr #%d (%s) missing stage %v: %+v", lt.InstrID, lt.Disasm, st, lt)
			}
			if c < prev {
				t.Fatalf("instr #%d stage %v at cycle %d before previous stage at %d",
					lt.InstrID, st, c, prev)
			}
			prev = c
		}
	}
	if want := sim.Report().Committed; uint64(committed) != want {
		t.Errorf("trace shows %d committed lifetimes, report says %d", committed, want)
	}
}

func TestTraceWritebackForALUAndLoad(t *testing.T) {
	_, ring := tracedRun(t, tracedLoop)
	lts := trace.Lifetimes(ring.Events())
	var sawALU, sawLoad bool
	for _, lt := range lts {
		if lt.Squashed {
			continue
		}
		switch {
		case strings.HasPrefix(lt.Disasm, "addi"):
			if lt.Stages[trace.StageWriteback] != 0 {
				sawALU = true
			}
		case strings.HasPrefix(lt.Disasm, "lw"):
			if lt.Stages[trace.StageWriteback] == 0 {
				t.Errorf("load #%d has no writeback event (LSU hook broken): %+v", lt.InstrID, lt)
			}
			sawLoad = true
		}
	}
	if !sawALU {
		t.Error("no ALU writeback events observed")
	}
	if !sawLoad {
		t.Error("program's lw never traced")
	}
}

func TestTraceSquashEventsCarryCause(t *testing.T) {
	sim, ring := tracedRun(t, tracedLoop)
	if sim.Report().Squashed == 0 {
		t.Skip("loop run produced no squashes on this predictor config")
	}
	var squashes uint64
	for _, ev := range ring.Events() {
		if ev.Stage != trace.StageSquash {
			continue
		}
		squashes++
		if !strings.HasPrefix(ev.Detail, "mispredict #") {
			t.Errorf("squash event missing cause detail: %+v", ev)
		}
	}
	if squashes != sim.Report().Squashed {
		t.Errorf("trace shows %d squash events, report counted %d", squashes, sim.Report().Squashed)
	}
}

func TestTraceIssueDetailNamesFU(t *testing.T) {
	_, ring := tracedRun(t, tracedLoop)
	for _, ev := range ring.Events() {
		if ev.Stage == trace.StageIssue && ev.Detail == "" {
			t.Fatalf("issue event without FU name: %+v", ev)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	sim := runSrc(t, tracedLoop)
	if sim.Tracer() != nil {
		t.Error("fresh simulation has a tracer attached")
	}
}
