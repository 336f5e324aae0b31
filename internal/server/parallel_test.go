package server

// Tests of the time-parallel simulation surface: the parallelism knob on
// /api/v1/simulate (docs/parallel.md), its validation, and the stable
// rewind_barrier error code on backward session navigation into regions
// without timing history.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/sim"
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
// step) below a session's rewind barrier must fail with the stable
// rewind_barrier code, not the generic unprocessable — clients dispatch
// on it to grey out navigation instead of showing a failure.
func TestSessionRewindBarrierCode(t *testing.T) {
	srv, ts := newTestServer(t)

	// Build a session whose prefix was fast-forwarded: cycles below the
	// barrier have no timing history to navigate into.
	m, err := sim.NewFromAsm(sim.DefaultConfig(), parallelProgram, "")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(0)
	m.FastForwardTo(3000)
	m.Run(2000)
	barrier := m.RewindBarrier()
	if barrier == 0 {
		t.Fatal("no rewind barrier after fast-forward")
	}
	id := srv.store.Add(nil, m)

	resp, body := postJSON(t, ts.URL+"/api/v1/session/goto", &api.SessionGotoRequest{
		SessionID: id, Cycle: barrier - 1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("goto below barrier: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeRewindBarrier {
		t.Errorf("goto code = %q, want %q (message %q)", e.Code, api.CodeRewindBarrier, e.Message)
	}

	// Landing exactly on the barrier cycle is legal.
	resp, body = postJSON(t, ts.URL+"/api/v1/session/goto", &api.SessionGotoRequest{
		SessionID: id, Cycle: barrier,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("goto exactly on barrier: status %d (%s)", resp.StatusCode, body)
	}

	// A negative step from the barrier crosses it.
	resp, body = postJSON(t, ts.URL+"/api/v1/session/step", &api.SessionStepRequest{
		SessionID: id, Steps: -1,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("step -1 across barrier: status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if e := decodeErrorEnvelope(t, body); e.Code != api.CodeRewindBarrier {
		t.Errorf("step code = %q, want %q", e.Code, api.CodeRewindBarrier)
	}
}
