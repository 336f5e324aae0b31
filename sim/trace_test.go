package sim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceTestProgram mixes ALU work, a mispredicting loop and memory
// traffic so the trace covers every stage including squashes.
const traceTestProgram = `
main:
  addi t0, x0, 0
  addi t1, x0, 200
  addi t3, x0, 0
loop:
  addi t0, t0, 1
  andi t4, t0, 3
  sw   t4, 0(x0)
  lw   t5, 0(x0)
  add  t3, t3, t5
  bne  t0, t1, loop
  ret
`

// TestTraceRestoredSessionGolden is the tentpole's acceptance gate: a
// session checkpointed mid-run and restored must emit byte-identical
// stage events to an uninterrupted run traced from the same cycle. The
// comparison is on the JSON wire encoding, so any drift — ordering,
// cycle stamps, details, disassembly — fails loudly.
func TestTraceRestoredSessionGolden(t *testing.T) {
	const splitCycle = 73 // mid-flight: ROB, LSU and windows are occupied

	// Uninterrupted run: trace from splitCycle to completion.
	a, err := NewFromAsm(DefaultConfig(), traceTestProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	a.StepN(splitCycle)
	if a.Halted() {
		t.Fatal("program finished before the split point; lengthen it")
	}
	ringA := NewTraceRing(1<<17, NoTraceFilter())
	a.SetTracer(ringA)
	a.Run(1_000_000)
	if !a.Halted() {
		t.Fatal("uninterrupted run did not halt")
	}

	// Checkpoint a second machine at the same cycle, restore, trace.
	b, err := NewFromAsm(DefaultConfig(), traceTestProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	b.StepN(splitCycle)
	var snap bytes.Buffer
	if err := b.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ringR := NewTraceRing(1<<17, NoTraceFilter())
	r.SetTracer(ringR)
	r.Run(1_000_000)
	if !r.Halted() {
		t.Fatal("restored run did not halt")
	}

	evA, evR := ringA.Events(), ringR.Events()
	if ringA.Dropped() != 0 || ringR.Dropped() != 0 {
		t.Fatalf("ring too small for the run: dropped %d/%d", ringA.Dropped(), ringR.Dropped())
	}
	if len(evA) == 0 {
		t.Fatal("no events traced after the split point")
	}
	jsonA, err := json.Marshal(evA)
	if err != nil {
		t.Fatal(err)
	}
	jsonR, err := json.Marshal(evR)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonA, jsonR) {
		max := len(evA)
		if len(evR) < max {
			max = len(evR)
		}
		for i := 0; i < max; i++ {
			if evA[i] != evR[i] {
				t.Fatalf("restored trace diverges at event %d:\n  uninterrupted: %+v\n  restored:      %+v",
					i, evA[i], evR[i])
			}
		}
		t.Fatalf("restored trace has %d events, uninterrupted %d", len(evR), len(evA))
	}
}

// TestTraceFilteredRestoreGolden repeats the equivalence under a stage +
// PC filter, the configuration the streaming endpoint uses.
func TestTraceFilteredRestoreGolden(t *testing.T) {
	const splitCycle = 50
	filter, err := ParseTraceFilter("commit,squash", "3:8")
	if err != nil {
		t.Fatal(err)
	}

	run := func(restore bool) []StageEvent {
		m, err := NewFromAsm(DefaultConfig(), traceTestProgram, "")
		if err != nil {
			t.Fatal(err)
		}
		m.StepN(splitCycle)
		if restore {
			var snap bytes.Buffer
			if err := m.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			if m, err = Restore(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		ring := NewTraceRing(1<<16, filter)
		m.SetTracer(ring)
		m.Run(1_000_000)
		return ring.Events()
	}

	direct, restored := run(false), run(true)
	if len(direct) == 0 {
		t.Fatal("filter matched nothing; test program or filter wrong")
	}
	jd, _ := json.Marshal(direct)
	jr, _ := json.Marshal(restored)
	if !bytes.Equal(jd, jr) {
		t.Fatalf("filtered traces differ: %d vs %d events", len(direct), len(restored))
	}
	for _, ev := range direct {
		if ev.PC < 3 || ev.PC > 8 {
			t.Fatalf("event escaped the PC filter: %+v", ev)
		}
	}
}

// TestTraceSurvivesGotoCycle: rewinding replays without re-emitting, and
// the tracer stays attached for subsequent forward steps.
func TestTraceSurvivesGotoCycle(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), traceTestProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	ring := NewTraceRing(1<<16, NoTraceFilter())
	m.SetTracer(ring)
	m.StepN(40)
	before := ring.Total()
	if err := m.GotoCycle(10); err != nil {
		t.Fatal(err)
	}
	if got := ring.Total(); got != before {
		t.Errorf("GotoCycle re-emitted the past: %d -> %d events", before, got)
	}
	if m.sim.Tracer() == nil {
		t.Fatal("tracer lost across GotoCycle")
	}
	m.StepN(5)
	if ring.Total() <= before {
		t.Error("no events after resuming from a rewind")
	}
}

// TestTraceReplayDoesNotReEmit: a backward step replays silently, and
// the tracer stays attached for the cycles run after it.
func TestTraceReplayDoesNotReEmit(t *testing.T) {
	m, err := NewFromAsm(DefaultConfig(), traceTestProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	ring := NewTraceRing(1<<14, NoTraceFilter())
	m.SetTracer(ring)
	m.Run(8)
	before := ring.Total()
	if before == 0 {
		t.Fatal("no events in the first 8 cycles")
	}
	if err := m.StepBack(); err != nil {
		t.Fatal(err)
	}
	if got := ring.Total(); got != before {
		t.Errorf("rewind re-emitted events: total %d -> %d", before, got)
	}
	if m.sim.Tracer() == nil {
		t.Fatal("tracer did not carry over to the replayed simulation")
	}
	m.Step()
	if got := ring.Total(); got <= before {
		t.Error("forward stepping after a rewind emitted no events")
	}
}
