package workload

import (
	"fmt"

	"riscvsim/internal/config"
	"riscvsim/sim"
)

// Options configures a suite run.
type Options struct {
	// Config is the architecture to measure; nil selects the default
	// 2-wide preset. The configuration is treated as read-only.
	Config *config.CPU
	// Filter selects a corpus subset (Match grammar); "" runs everything.
	Filter string
}

// NewMachine builds the simulation machine for one workload on the given
// architecture (nil = default). Exposed so tests can drive a workload
// manually — e.g. checkpoint it mid-run — with suite-identical setup.
func NewMachine(cfg *config.CPU, w Workload) (*sim.Machine, error) {
	if cfg == nil {
		cfg = config.Default()
	}
	m, err := sim.NewFromAsm(cfg, w.Source, w.Entry)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return m, nil
}

// RunOne executes a single workload to completion and reduces it to its
// metrics row.
func RunOne(cfg *config.CPU, w Workload) (Metrics, error) {
	m, err := NewMachine(cfg, w)
	if err != nil {
		return Metrics{}, err
	}
	m.Run(w.MaxCycles)
	return FromReport(w, m.Report()), nil
}

// Run executes the selected corpus against the architecture, one
// workload after another, and returns one metrics row per workload in
// corpus order. /api/v1/suite fans the same rows out over the server's
// pool (server.fanOut).
func Run(opts Options) (*Report, error) {
	cfg := opts.Config
	if cfg == nil {
		cfg = config.Default()
	}
	selected, err := Match(opts.Filter)
	if err != nil {
		return nil, err
	}
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("workload: fingerprinting configuration: %w", err)
	}
	rows := make([]Metrics, len(selected))
	for i, w := range selected {
		if rows[i], err = RunOne(cfg, w); err != nil {
			return nil, err
		}
	}
	return &Report{Architecture: cfg.Name, ConfigFingerprint: fp, Workloads: rows}, nil
}
