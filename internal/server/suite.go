package server

import (
	"encoding/json"
	"net/http"
	"sync"

	"riscvsim/internal/api"
	"riscvsim/internal/workload"
	"riscvsim/sim"
)

// handleSuite runs the embedded workload corpus against one architecture
// and returns the typed per-workload metrics report. The corpus is fanned
// out across the same worker pool as /api/v1/batch; each workload is one
// SimulateRequest, so panics, cycle bounds and instrumentation behave
// exactly as they do for batch entries. Unlike a batch, a suite is
// all-or-nothing: a metrics report with holes is useless as a baseline,
// so the first failing workload fails the request.
func (s *Server) handleSuite(_ http.ResponseWriter, r *http.Request, req *api.SuiteRequest) (any, *api.Error) {
	cfg, aerr := resolveConfig(req.Preset, req.Config)
	if aerr != nil {
		return nil, aerr
	}
	selected, err := workload.Match(req.Filter)
	if err != nil {
		return nil, api.WrapError(api.CodeBadFilter, err)
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, api.WrapError(api.CodeInternal, err)
	}
	cfgJSON, err := cfg.Export()
	if err != nil {
		return nil, api.WrapError(api.CodeInternal, err)
	}
	raw := json.RawMessage(cfgJSON)

	simReqs := make([]api.SimulateRequest, len(selected))
	for i, wl := range selected {
		simReqs[i] = api.SimulateRequest{
			Code:   wl.Source,
			Entry:  wl.Entry,
			Steps:  wl.MaxCycles,
			Config: &raw,
		}
	}
	results, workers, wall, aerr := s.fanOut(r.Context(), simReqs)
	if aerr != nil {
		return nil, aerr
	}

	rows := make([]workload.Metrics, len(selected))
	for i, res := range results {
		if res.Error != nil {
			// The corpus is server-embedded: a workload that fails to
			// build or run is a server defect, never the caller's fault,
			// so the item's code is folded into the message and the
			// request fails as internal (500), not 4xx.
			return nil, api.Errorf(api.CodeInternal,
				"embedded workload %s failed: [%s] %s", selected[i].Name, res.Error.Code, res.Error.Message)
		}
		rows[i] = workload.FromReport(selected[i], res.Response.Stats)
	}
	s.ctr[ctrSuiteReqs].Add(1)
	s.ctr[ctrSuiteRuns].Add(uint64(len(selected)))
	return &api.SuiteResponse{
		Report: workload.Report{
			Architecture:      cfg.Name,
			ConfigFingerprint: fp,
			Workloads:         rows,
		},
		Workers:   workers,
		WallNanos: uint64(wall),
	}, nil
}

// sharedPresets holds one architecture per preset name, built on first
// use and shared by every request that names it.
var sharedPresets = sync.OnceValue(sim.Presets)

// resolveConfig applies the Preset/Config precedence shared by simulate
// and suite requests: Config overrides Preset overrides the default. A
// preset comes back shared, not copied: nothing in core, sim or server
// writes a configuration after this returns, and nothing may.
func resolveConfig(preset string, raw *json.RawMessage) (*sim.Config, *api.Error) {
	if preset == "" {
		preset = "default"
	}
	cfg, ok := sharedPresets()[preset]
	if !ok {
		return nil, api.Errorf(api.CodeUnknownPreset, "unknown preset %q", preset)
	}
	if raw != nil {
		c, err := sim.ImportConfig(*raw)
		if err != nil {
			return nil, api.WrapError(api.CodeBadConfig, err)
		}
		cfg = c
	}
	return cfg, nil
}
