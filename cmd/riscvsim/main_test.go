package main

import (
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
	"riscvsim/sim"
)

// fillLoop stores 0..7 into arr, one word per iteration.
const fillLoop = `.data
arr: .word 0,0,0,0,0,0,0,0
.text
la t1, arr
li t0, 0
li t2, 8
loop:
sw t0, 0(t1)
addi t1, t1, 4
addi t0, t0, 1
bne t0, t2, loop
`

// TestDumpAgreesWithSteps: -dump prints memory of the run the statistics
// describe. The dump used to come from a second run that ignored -steps,
// so a run cut short printed the finished program's memory.
func TestDumpAgreesWithSteps(t *testing.T) {
	run := func(steps uint64) (*sim.Machine, *api.SimulateResponse) {
		t.Helper()
		m, resp, aerr := server.Simulate(&api.SimulateRequest{Code: fillLoop, Steps: steps})
		if aerr != nil {
			t.Fatal(aerr)
		}
		if m.Cycle() != resp.Cycles {
			t.Fatalf("machine at cycle %d, statistics describe cycle %d", m.Cycle(), resp.Cycles)
		}
		return m, resp
	}
	const lastWord = "07 00 00 00"
	m, done := run(0)
	full, err := formatDump(m, "arr")
	if err != nil || !done.Halted || !strings.Contains(full, lastWord) {
		t.Fatalf("complete run (halted=%v, err %v) did not fill arr:\n%s", done.Halted, err, full)
	}
	if byRange, err := formatDump(m, "4096:32"); err != nil || !strings.Contains(byRange, lastWord) {
		t.Errorf("addr:len dump = %q, %v", byRange, err)
	}
	if _, err := formatDump(m, "nolabel"); err == nil {
		t.Error("a dump of an unknown label was accepted")
	}
	m, cut := run(8)
	early, err := formatDump(m, "arr")
	if err != nil || cut.Halted || cut.Cycles != 8 {
		t.Fatalf("-steps 8 ran to cycle %d (halted=%v, err %v)", cut.Cycles, cut.Halted, err)
	}
	if strings.Contains(early, lastWord) {
		t.Errorf("dump after 8 cycles shows the finished program's memory:\n%s", early)
	}
}
