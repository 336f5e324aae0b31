package client

// Tests of the v1-only client features: batch fan-out, NDJSON streaming,
// and the machine-readable error surface.

import (
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
)

func TestClientSimulateBatch(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	reqs := []api.SimulateRequest{
		{Code: prog},
		{Code: "bogus instr\n"},
		{Code: prog, IncludeState: true},
	}
	resp, err := c.SimulateBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 2 || resp.Failed != 1 || len(resp.Results) != 3 {
		t.Fatalf("batch: %+v", resp)
	}
	if resp.Results[0].Response == nil || resp.Results[0].Response.Stats.Committed != 2 {
		t.Errorf("item 0: %+v", resp.Results[0].Response)
	}
	if e := resp.Results[1].Error; e == nil || e.Code != api.CodeBuildFailed {
		t.Errorf("item 1 error: %+v", resp.Results[1].Error)
	}
	if resp.Results[2].Response == nil || resp.Results[2].Response.State == nil {
		t.Error("item 2 missing requested state")
	}
}

func TestClientStream(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	var events []*api.StreamEvent
	final, err := c.Stream(&api.StreamRequest{
		SimulateRequest: api.SimulateRequest{Code: prog},
		StepBurst:       1,
	}, func(ev *api.StreamEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	if !final.Done || !final.Halted || final.Stats == nil || final.Stats.Committed != 2 {
		t.Errorf("final event: %+v", final)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestClientStreamSurfacesBuildErrors(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	_, err := c.Stream(&api.StreamRequest{
		SimulateRequest: api.SimulateRequest{Code: "bogus instr\n"},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), api.CodeBuildFailed) {
		t.Errorf("err = %v, want the %s envelope", err, api.CodeBuildFailed)
	}
}

func TestClientErrorCarriesStableCode(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	_, err := c.Simulate(&api.SimulateRequest{Code: prog, Preset: "nope"})
	if err == nil || !strings.Contains(err.Error(), api.CodeUnknownPreset) {
		t.Errorf("err = %v, want [%s] tag", err, api.CodeUnknownPreset)
	}
}

func TestClientBatchMetricsVisible(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	if _, err := c.SimulateBatch([]api.SimulateRequest{{Code: prog}, {Code: prog}}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.BatchRequests != 1 || m.BatchSimulations != 2 {
		t.Errorf("batch metrics: %+v", m)
	}
}
