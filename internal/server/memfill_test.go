package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

func memFillMachine(t *testing.T, data string) *sim.Machine {
	t.Helper()
	m, err := sim.NewFromAsm(sim.DefaultConfig(), "li a0, 0\n.data\n"+data, "")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func readLabel(t *testing.T, m *sim.Machine, label string) []byte {
	t.Helper()
	addr, size, ok := m.LookupLabel(label)
	if !ok {
		t.Fatalf("label %q missing", label)
	}
	b, err := m.ReadMemory(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMemFillRepeatWithEmptyValues(t *testing.T) {
	// Repeat with no Values repeats the implicit zero — it must fill,
	// not crash or error.
	m := memFillMachine(t, "buf: .zero 16\n")
	if err := ApplyMemFill(m, api.MemFill{Label: "buf", Repeat: 4}); err != nil {
		t.Fatalf("repeat with empty values: %v", err)
	}
	if got := readLabel(t, m, "buf"); !bytes.Equal(got, make([]byte, 16)) {
		t.Errorf("buffer = % x, want zeros", got)
	}
	// And with a value it repeats that value.
	if err := ApplyMemFill(m, api.MemFill{Label: "buf", Repeat: 4, Values: []int64{7}}); err != nil {
		t.Fatal(err)
	}
	got := readLabel(t, m, "buf")
	for i := 0; i < 4; i++ {
		if got[i*4] != 7 {
			t.Fatalf("word %d = % x, want 7", i, got[i*4:i*4+4])
		}
	}
}

func TestMemFillRandomSeedDeterminism(t *testing.T) {
	fill := func(seed int64) []byte {
		m := memFillMachine(t, "buf: .zero 32\n")
		if err := ApplyMemFill(m, api.MemFill{Label: "buf", Random: 8, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return readLabel(t, m, "buf")
	}
	a, b := fill(1234), fill(1234)
	if !bytes.Equal(a, b) {
		t.Error("same seed must produce identical fills")
	}
	if c := fill(5678); bytes.Equal(a, c) {
		t.Error("different seeds produced identical fills")
	}
	// Seed 0 uses the documented default seed, also deterministically.
	if !bytes.Equal(fill(0), fill(0)) {
		t.Error("default seed not deterministic")
	}
}

func TestMemFillElemSize8Overflow(t *testing.T) {
	m := memFillMachine(t, "buf: .zero 8\n")
	// One 8-byte element fits exactly.
	if err := ApplyMemFill(m, api.MemFill{Label: "buf", ElemSize: 8, Values: []int64{-1}}); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	if got := readLabel(t, m, "buf"); !bytes.Equal(got, bytes.Repeat([]byte{0xff}, 8)) {
		t.Errorf("8-byte little-endian write wrong: % x", got)
	}
	// Two 8-byte elements overflow the labelled allocation.
	err := ApplyMemFill(m, api.MemFill{Label: "buf", ElemSize: 8, Values: []int64{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("overflow not caught: %v", err)
	}
	// Repeat and Random are also bounded by elemSize accounting.
	if err := ApplyMemFill(m, api.MemFill{Label: "buf", ElemSize: 8, Repeat: 2}); err == nil {
		t.Error("repeat overflow not caught")
	}
	if err := ApplyMemFill(m, api.MemFill{Label: "buf", ElemSize: 8, Random: 2}); err == nil {
		t.Error("random overflow not caught")
	}
}

// rewindFillProgram reads filled memory before its first snapshot and
// after its second, so a replay that loses the fills changes a0.
const rewindFillProgram = `
  la t0, data
  lw a0, 0(t0)
  li t1, 0
  li t2, 3000
loop:
  addi t1, t1, 1
  bne t1, t2, loop
  lw t3, 4(t0)
  add a0, a0, t3
.data
data: .word 0, 0
`

// TestSessionRewindKeepsMemFills: memFills are part of a session's own
// cycle 0, so a backward step or a goto below the first snapshot re-runs
// on them and replies what the forward run to that cycle replies.
func TestSessionRewindKeepsMemFills(t *testing.T) {
	_, ts := newTestServer(t)
	open := func() string {
		resp, body := postJSON(t, ts.URL+"/api/v1/session/new", &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{
			Code: rewindFillProgram, MemFills: []api.MemFill{{Label: "data", Values: []int64{5, 7}}},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session/new: status %d: %s", resp.StatusCode, body)
		}
		var sr api.SessionNewResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.SessionID
	}
	step := func(id string, steps int64) []byte {
		st, resp, body := stepSession(t, ts.URL, id, steps)
		if st == nil {
			t.Fatalf("step %d: status %d: %s", steps, resp.StatusCode, body)
		}
		return body
	}
	fwd := open()
	want := step(fwd, 100)

	back := open()
	step(back, 2500)
	if got := step(back, -2400); !bytes.Equal(got, want) {
		t.Error("a step back to cycle 100 replies otherwise than the forward run to it")
	}
	gone := open()
	step(gone, 2500)
	resp, got := postJSON(t, ts.URL+"/api/v1/session/goto", &api.SessionGotoRequest{SessionID: gone, Cycle: 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("goto: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("a goto to cycle 100 replies otherwise than the forward run to it")
	}

	var end api.SessionStateResponse
	if err := json.Unmarshal(step(back, 100_000), &end); err != nil {
		t.Fatal(err)
	}
	for _, reg := range end.State.IntRegs {
		if reg.Name == "x10" && reg.Value != "12" {
			t.Errorf("a0 after re-running = %s, want 12", reg.Value)
		}
	}
}

// TestRestoredSessionRewindsOnItsFills: a checkpoint carries its
// machine's own cycle 0, so a session restored at cycle 50 that goes back
// to cycle 1 re-runs on its memFills, not on the Program's image.
func TestRestoredSessionRewindsOnItsFills(t *testing.T) {
	_, ts := newTestServer(t)
	call := func(route string, req, out any) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/api/v1/session/"+route, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", route, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
	}
	var opened api.SessionNewResponse
	call("new", &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{
		Code: rewindFillProgram, MemFills: []api.MemFill{{Label: "data", Values: []int64{105, 7}}},
	}}, &opened)
	var st api.SessionStateResponse
	call("step", &api.SessionStepRequest{SessionID: opened.SessionID, Steps: 50}, &st)
	var cp api.SessionCheckpointResponse
	call("checkpoint", &api.SessionCheckpointRequest{SessionID: opened.SessionID}, &cp)
	var restored api.SessionNewResponse
	call("restore", &api.SessionRestoreRequest{Checkpoint: cp.Checkpoint}, &restored)
	call("goto", &api.SessionGotoRequest{SessionID: restored.SessionID, Cycle: 1}, &st)
	call("step", &api.SessionStepRequest{SessionID: restored.SessionID, Steps: 100_000}, &st)

	a0 := "missing"
	for _, reg := range st.State.IntRegs {
		if reg.Name == "x10" {
			a0 = reg.Value
		}
	}
	if !st.State.Halted || a0 != "112" {
		t.Errorf("restored at cycle 50, back to cycle 1, re-run: halted %v, a0 = %s, want 112", st.State.Halted, a0)
	}
}
