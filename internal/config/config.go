// Package config defines the processor architecture description: the JSON
// document the paper's Architecture Settings window edits, imports and
// exports (§II-C). The tabs map to struct fields: clocks, Buffers,
// Functional units, Cache, Memory and Branch prediction.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"riscvsim/internal/cache"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
)

// FUSpec describes one functional unit. FX and FP units can vary in
// supported instructions and associated latencies, while LS, memory and
// branch units allow latency specification only (paper §II-C).
type FUSpec struct {
	// Name identifies the unit in the GUI and statistics ("FX0", "FP1").
	Name string `json:"name"`
	// Class routes instructions: "FX", "FP", "LS" or "Branch".
	Class string `json:"class"`
	// Latency is the default execution latency in cycles: that of every
	// instruction of the class when Ops is empty, else of each mnemonic
	// Ops lists without a positive latency.
	Latency int `json:"latency"`
	// Ops optionally restricts the unit to specific mnemonics and/or
	// overrides their latency. An empty map means the unit executes any
	// instruction of its class at the default latency.
	Ops map[string]int `json:"ops,omitempty"`
	// Pipelined lets the unit accept one new instruction per cycle while
	// earlier ones are still completing. Off by default, matching the
	// paper's stated limitation (§III-A); turning it on implements the
	// paper's future-work item (§V).
	Pipelined bool `json:"pipelined,omitempty"`
}

// Supports reports whether the unit can execute the named instruction.
func (f *FUSpec) Supports(name string) bool {
	if len(f.Ops) == 0 {
		return true
	}
	_, ok := f.Ops[name]
	return ok
}

// LatencyFor returns the unit's latency for the named instruction.
func (f *FUSpec) LatencyFor(name string) int {
	if l, ok := f.Ops[name]; ok && l > 0 {
		return l
	}
	return max(f.Latency, 1)
}

// CPU is the complete architecture description.
type CPU struct {
	// Name labels the architecture (first settings tab).
	Name string `json:"name"`
	// CoreClockHz is the core clock used to derive wall time from cycles.
	CoreClockHz float64 `json:"coreClockHz"`
	// MemoryClockHz is reported in statistics; memory latencies are
	// already expressed in core cycles.
	MemoryClockHz float64 `json:"memoryClockHz"`

	// Buffers tab: the superscalar width controls (paper §II-C).
	ROBSize       int `json:"robSize"`
	FetchWidth    int `json:"fetchWidth"`
	CommitWidth   int `json:"commitWidth"`
	FlushPenalty  int `json:"flushPenalty"`
	JumpsPerCycle int `json:"jumpsPerCycle"`

	// Issue window capacities per functional-unit class.
	FXWindow     int `json:"fxWindow"`
	FPWindow     int `json:"fpWindow"`
	LSWindow     int `json:"lsWindow"`
	BranchWindow int `json:"branchWindow"`

	// Memory tab: load/store buffers and the rename file.
	LoadBufferSize  int `json:"loadBufferSize"`
	StoreBufferSize int `json:"storeBufferSize"`
	RenameRegisters int `json:"renameRegisters"`

	// Functional units tab.
	Units []FUSpec `json:"units"`

	// Cache tab.
	Cache cache.Config `json:"cache"`
	// Memory tab (latencies, capacity, call stack).
	Memory memory.Config `json:"memory"`
	// Branch prediction tab.
	Predictor predictor.Config `json:"predictor"`
}

// Export serializes the architecture to indented JSON, the format the GUI
// exchanges via its import/export buttons.
func (c *CPU) Export() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Fingerprint returns a stable 64-bit FNV-1a digest of the exported
// architecture document, formatted as 16 hex digits. Two configurations
// fingerprint equally iff their exported JSON is byte-identical, so the
// workload suite's golden baselines can tell "the default architecture
// changed" apart from "the simulator's behavior changed".
func (c *CPU) Fingerprint() (string, error) {
	data, err := c.Export()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Import parses and validates an architecture description.
func Import(data []byte) (*CPU, error) {
	var c CPU
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: bad architecture JSON: %w", err)
	}
	if errs := c.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("config: invalid architecture:\n  %s", strings.ReplaceAll(errors.Join(errs...).Error(), "\n", "\n  "))
	}
	return &c, nil
}
