package server

// Tests of the time-parallel simulation surface: the parallelism knob on
// /api/v1/simulate (docs/parallel.md), its validation, and the stable
// rewind_barrier error code on backward session navigation into regions
// without timing history.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"riscvsim/internal/api"
)

// parallelProgram commits ~66k instructions — enough to split into
// several intervals with a small warm-up.
const parallelProgram = `
  li t0, 0
  li t1, 1
  li t2, 22000
loop:
  add t0, t0, t1
  addi t1, t1, 1
  bne t1, t2, loop
  mv a0, t0
`

func TestV1SimulateParallel(t *testing.T) {
	_, ts := newTestServer(t)

	_, serialBody := postJSON(t, ts.URL+"/api/v1/simulate", &api.SimulateRequest{
		Code: parallelProgram, IncludeState: true,
	})
	var serial api.SimulateResponse
	if err := json.Unmarshal(serialBody, &serial); err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/api/v1/simulate", &api.SimulateRequest{
		Code: parallelProgram, Parallelism: 4, WarmupCycles: 512, IncludeState: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var par api.SimulateResponse
	if err := json.Unmarshal(body, &par); err != nil {
		t.Fatal(err)
	}
	if !par.Halted || par.HaltReason != serial.HaltReason {
		t.Errorf("halted=%v reason=%q, want halted serial reason %q",
			par.Halted, par.HaltReason, serial.HaltReason)
	}
	if par.Parallel == nil {
		t.Fatal("parallel info missing from response")
	}
	if par.Parallel.Workers < 2 {
		t.Errorf("workers = %d, want >= 2", par.Parallel.Workers)
	}
	if par.Parallel.Healed != 0 {
		t.Errorf("%d intervals healed on a clean run", par.Parallel.Healed)
	}
	if len(par.Parallel.Intervals) != par.Parallel.Workers {
		t.Errorf("%d intervals reported for %d workers",
			len(par.Parallel.Intervals), par.Parallel.Workers)
	}
	// The stitched counters telescope to the serial run's integers.
	if par.Stats == nil || par.Stats.Committed != serial.Stats.Committed {
		t.Errorf("stitched committed %d, want %d", par.Stats.Committed, serial.Stats.Committed)
	}
	// The final architectural state is bit-exact: every register matches.
	if par.State == nil || serial.State == nil {
		t.Fatal("state missing")
	}
	for i, v := range serial.State.IntRegs {
		if par.State.IntRegs[i] != v {
			t.Errorf("x%d = %v, want %v", i, par.State.IntRegs[i], v)
		}
	}
}

// TestV1SimulateParallelMemFills: the scout and every worker fork from
// the machine's own cycle 0, so a parallel run honours memFills and ends
// in the serial run's state.
func TestV1SimulateParallelMemFills(t *testing.T) {
	_, ts := newTestServer(t)
	code := strings.Replace(parallelProgram, "  mv a0, t0\n", "  la t3, data\n  lw t4, 0(t3)\n  add a0, t0, t4\n.data\ndata: .word 0\n", 1)
	run := func(parallelism int) *api.SimulateResponse {
		resp, body := postJSON(t, ts.URL+"/api/v1/simulate", &api.SimulateRequest{
			Code: code, Parallelism: parallelism, WarmupCycles: 512, IncludeState: true,
			MemFills: []api.MemFill{{Label: "data", Values: []int64{100}}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism %d: status %d: %s", parallelism, resp.StatusCode, body)
		}
		var sr api.SimulateResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return &sr
	}
	serial, par := run(0), run(4)
	if par.Parallel == nil || par.Parallel.Workers < 2 {
		t.Fatalf("the run did not split: %+v", par.Parallel)
	}
	for i, v := range serial.State.IntRegs {
		if par.State.IntRegs[i] != v {
			t.Errorf("x%d = %v, want the serial run's %v", i, par.State.IntRegs[i], v)
		}
	}
}

// TestV1SimulateParallelValidation: the knob's exclusions and its
// requirement of a terminating program are stable-coded errors.
func TestV1SimulateParallelValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name     string
		body     *api.SimulateRequest
		wantCode string
	}{
		{"with fastForward", &api.SimulateRequest{Code: parallelProgram, Parallelism: 2, FastForward: true}, api.CodeBadRequest},
		{"with trace", &api.SimulateRequest{Code: parallelProgram, Parallelism: 2, Trace: &api.TraceOptions{}}, api.CodeBadRequest},
		{"with checkpoint", &api.SimulateRequest{Checkpoint: []byte{1}, Parallelism: 2}, api.CodeBadRequest},
		// An endless loop cannot be split along a known commit horizon:
		// the scout pass must refuse within the Steps budget.
		{"non-terminating", &api.SimulateRequest{Code: "loop:\n  j loop\n", Parallelism: 2, Steps: 50_000}, api.CodeUnprocessable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/api/v1/simulate", c.body)
			if resp.StatusCode == http.StatusOK {
				t.Fatalf("accepted: %s", body)
			}
			if e := decodeErrorEnvelope(t, body); e.Code != c.wantCode {
				t.Errorf("code = %q, want %q (message %q)", e.Code, c.wantCode, e.Message)
			}
		})
	}
}

// TestSessionRewindBarrierCode: backward navigation (goto and negative
// step) below a session's floor must fail with the stable rewind_barrier
// code, not the generic unprocessable — clients dispatch on it to grey
// out navigation instead of showing a failure. A session restored from a
// fast-forward checkpoint (the CLI's -fast-forward -checkpoint) has its
// floor at the restored cycle: a detailed replay from below would show a
// history that never happened.
func TestSessionRewindBarrierCode(t *testing.T) {
	_, ts := newTestServer(t)

	m, _, aerr := Simulate(&api.SimulateRequest{Code: parallelProgram, FastForward: true, Steps: 1000})
	if aerr != nil {
		t.Fatal(aerr)
	}
	var ck bytes.Buffer
	if err := m.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/api/v1/session/restore", &api.SessionRestoreRequest{Checkpoint: ck.Bytes()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d (%s)", resp.StatusCode, body)
	}
	var restored api.SessionNewResponse
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	id, barrier := restored.SessionID, restored.State.Cycle
	if barrier != m.Cycle() || barrier == 0 {
		t.Fatalf("restored at cycle %d, want the checkpoint's %d", barrier, m.Cycle())
	}

	// A negative step from the floor crosses it.
	resp, body = postJSON(t, ts.URL+"/api/v1/session/step", &api.SessionStepRequest{
		SessionID: id, Steps: -1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("step -1 below the floor: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeRewindBarrier {
		t.Errorf("step code = %q, want %q (message %q)", e.Code, api.CodeRewindBarrier, e.Message)
	}

	// Forward in detail, then back below the floor and onto it.
	resp, body = postJSON(t, ts.URL+"/api/v1/session/step", &api.SessionStepRequest{
		SessionID: id, Steps: 500,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step 500: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/api/v1/session/goto", &api.SessionGotoRequest{
		SessionID: id, Cycle: barrier - 1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("goto below the floor: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeRewindBarrier {
		t.Errorf("goto code = %q, want %q (message %q)", e.Code, api.CodeRewindBarrier, e.Message)
	}
	// Landing exactly on the floor is legal.
	resp, body = postJSON(t, ts.URL+"/api/v1/session/goto", &api.SessionGotoRequest{
		SessionID: id, Cycle: barrier,
	})
	var st api.SessionStateResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("goto exactly on the floor: status %d (%s)", resp.StatusCode, body)
	}
	if st.State.Cycle != barrier || st.State.Stats.Committed != m.Committed() {
		t.Errorf("on the floor: cycle %d with %d committed, want cycle %d with %d",
			st.State.Cycle, st.State.Stats.Committed, barrier, m.Committed())
	}
}
