// Package config defines the processor architecture description: the JSON
// document the paper's Architecture Settings window edits, imports and
// exports (§II-C). The tabs map to struct fields: clocks, Buffers,
// Functional units, Cache, Memory and Branch prediction.
package config

import (
	"encoding/json"
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
	if f.Latency > 0 {
		return f.Latency
	}
	return 1
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

// Upper bounds on the architecture document. Building a machine costs
// memory linear in each of these fields (a 16 Mi-entry BTB alone would take
// ~400 MB), so without them ~2 KB of JSON could ask for gigabytes. Each is
// at least 8x the largest preset value (wide-8, or the shared defaults);
// docs/api.md lists them with the cache's and predictor's own bounds.
const (
	MaxROBSize         = 1024     // wide-8: 128
	MaxRenameRegisters = 2048     // wide-8: 192
	MaxWidth           = 64       // fetchWidth, commitWidth, jumpsPerCycle; wide-8: 8, 8, 3
	MaxWindowSize      = 256      // each issue window and load/store buffer; wide-8: 32
	MaxUnits           = 128      // functional units; wide-8: 16
	MaxMemorySize      = 16 << 20 // bytes; every preset: 64 KiB
)

// Validate checks the whole configuration and returns every problem found,
// mirroring the configuration validation step of simulation initialization
// (paper §III-A).
func (c *CPU) Validate() []error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, f := range []struct {
		name  string
		v, hi int
	}{
		{"robSize", c.ROBSize, MaxROBSize},
		{"renameRegisters", c.RenameRegisters, MaxRenameRegisters},
		{"fetchWidth", c.FetchWidth, MaxWidth},
		{"commitWidth", c.CommitWidth, MaxWidth},
		{"jumpsPerCycle", c.JumpsPerCycle, MaxWidth},
		{"fxWindow", c.FXWindow, MaxWindowSize}, {"fpWindow", c.FPWindow, MaxWindowSize},
		{"lsWindow", c.LSWindow, MaxWindowSize}, {"branchWindow", c.BranchWindow, MaxWindowSize},
		{"loadBufferSize", c.LoadBufferSize, MaxWindowSize}, {"storeBufferSize", c.StoreBufferSize, MaxWindowSize},
		{"units (functional unit count)", len(c.Units), MaxUnits},
		{"memory size", c.Memory.Size, MaxMemorySize},
	} {
		if f.v <= 0 || f.v > f.hi {
			add("config: %s must be in [1, %d], got %d", f.name, f.hi, f.v)
		}
	}
	if c.FlushPenalty < 0 {
		add("config: flushPenalty must be non-negative, got %d", c.FlushPenalty)
	}
	if c.RenameRegisters < c.ROBSize {
		add("config: renameRegisters (%d) must be at least robSize (%d) so every in-flight instruction can rename a destination",
			c.RenameRegisters, c.ROBSize)
	}
	seen := map[string]bool{}
	hasClass := map[string]bool{}
	for i := range c.Units {
		u := &c.Units[i]
		if u.Name == "" {
			add("config: unit %d has no name", i)
		}
		if seen[u.Name] {
			add("config: duplicate unit name %q", u.Name)
		}
		seen[u.Name] = true
		switch u.Class {
		case "FX", "FP", "LS", "Branch":
			hasClass[u.Class] = true
		default:
			add("config: unit %q has unknown class %q", u.Name, u.Class)
		}
		if u.Latency <= 0 && len(u.Ops) == 0 {
			add("config: unit %q needs a positive latency", u.Name)
		}
	}
	for _, cl := range []string{"FX", "LS", "Branch"} {
		if !hasClass[cl] {
			add("config: no %s unit configured; integer programs cannot execute", cl)
		}
	}
	if err := c.Cache.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.Memory.CallStackSize < 0 || c.Memory.CallStackSize > c.Memory.Size {
		add("config: callStackSize %d out of range", c.Memory.CallStackSize)
	}
	if c.Memory.LoadLatency < 0 || c.Memory.StoreLatency < 0 {
		add("config: memory latencies must be non-negative")
	}
	if err := c.Predictor.Validate(); err != nil {
		errs = append(errs, err)
	}
	if c.CoreClockHz <= 0 {
		add("config: coreClockHz must be positive, got %g", c.CoreClockHz)
	}
	return errs
}

// MarshalJSON / import–export round-trip uses the standard encoding; the
// wrapper functions add validation.

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
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: bad architecture JSON: %w", err)
	}
	if errs := c.Validate(); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("config: invalid architecture:\n  %s", strings.Join(msgs, "\n  "))
	}
	return &c, nil
}
