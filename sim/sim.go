// Package sim is the public API of the superscalar RISC-V simulator: a
// facade over the internal packages that assembles (or compiles) a
// program, builds a processor from an architecture description, and runs
// interactive or batch simulations with full runtime statistics.
//
// Quick start:
//
//	m, err := sim.NewFromAsm(sim.DefaultConfig(), src, "")
//	m.Run(1_000_000)
//	fmt.Println(m.Report().FormatText())
package sim

import (
	"errors"
	"fmt"
	"sync"

	"riscvsim/internal/asm"
	"riscvsim/internal/compiler"
	"riscvsim/internal/config"
	"riscvsim/internal/core"
	"riscvsim/internal/costmodel"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/stats"
	"riscvsim/internal/trace"
)

// Re-exported types so downstream users can name everything through this
// package.
type (
	// Config is the complete processor architecture description (the
	// paper's Architecture Settings JSON).
	Config = config.CPU
	// Report is the runtime-statistics document.
	Report = stats.Report
	// State is a full processor snapshot for display.
	State = core.State
	// MemoryConfig is the memory part of Config: capacity, latencies and
	// call-stack size.
	MemoryConfig = memory.Config
	// Exception is a simulation fault (division by zero, bad access...).
	Exception = fault.Exception
	// CompileResult is C compiler output: assembly plus line links.
	CompileResult = compiler.Result
	// LogEntry is one timestamped debug-log message.
	LogEntry = core.LogEntry

	// Tracer receives typed pipeline-stage events (internal/trace).
	Tracer = trace.Tracer
	// StageEvent is one typed stage transition of a dynamic instruction.
	StageEvent = trace.StageEvent
	// TraceFilter selects stages and a PC range for a trace collector.
	TraceFilter = trace.Filter
	// TraceRing is the bounded ring-buffer trace collector.
	TraceRing = trace.Ring

	// EngineMode selects how instruction semantics are computed
	// (specialized fast path vs forced interpreter).
	EngineMode = core.EngineMode
)

// Engine modes. EngineSpecialized is the default; EngineInterpreter
// forces the expression interpreter for every instruction — the
// functional reference path the co-simulation fuzzer compares against
// (docs/fuzzing.md).
const (
	EngineSpecialized = core.EngineSpecialized
	EngineInterpreter = core.EngineInterpreter
	EngineFastForward = core.EngineFastForward
)

// NewTraceRing builds a bounded ring-buffer trace collector; attach it
// with Machine.SetTracer. Use NoTraceFilter() to keep every event.
func NewTraceRing(capacity int, f TraceFilter) *TraceRing {
	return trace.NewRing(capacity, f)
}

// NoTraceFilter returns the match-everything trace filter.
func NoTraceFilter() TraceFilter { return trace.NoFilter }

// ParseTraceFilter parses the stage ("fetch,commit" / "all") and PC-range
// ("lo:hi") filter grammars documented in docs/trace.md.
func ParseTraceFilter(stages, pcRange string) (TraceFilter, error) {
	return trace.ParseFilter(stages, pcRange)
}

// DefaultConfig returns the standard 2-wide superscalar preset.
func DefaultConfig() *Config { return config.Default() }

// WidthConfig returns a preset with the given fetch/commit width (1, 2, 4
// or 8).
func WidthConfig(width int) (*Config, error) { return config.WidthPreset(width) }

// Presets returns all named architecture presets.
func Presets() map[string]*Config { return config.Presets() }

// Preset returns the named architecture preset, building only that one.
func Preset(name string) (*Config, bool) { return config.Preset(name) }

// DefaultMemoryConfig returns the memory shape of the preset
// architectures.
func DefaultMemoryConfig() MemoryConfig { return memory.DefaultConfig() }

// ImportConfig parses and validates an architecture JSON document.
func ImportConfig(data []byte) (*Config, error) { return config.Import(data) }

// CompileC translates C source to RISC-V assembly at optimization level
// 0..3, standing in for the paper's GCC interface.
func CompileC(src string, opt int) (*CompileResult, error) {
	return compiler.Compile(src, opt)
}

// FilterAssembly strips compiler noise from generated assembly (the
// paper's output filter).
func FilterAssembly(src string) string { return asm.FilterCompilerOutput(src) }

// Machine is one simulation instance with everything needed to run,
// inspect, and step it forward or backward.
type Machine struct {
	cfg *Config
	// prog is the compiled program the machine runs, possibly shared with
	// other machines; the machine never writes it.
	prog *Program
	sim  *core.Simulation
	// entry is the starting instruction index (checkpoints record it).
	entry int
	// cfgJSON caches the exported architecture document for checkpoint
	// headers (per-cycle state hashing re-encodes the header each time).
	cfgJSON []byte

	// snaps is the one way back (snapshot.go): its floor is the oldest
	// state the machine can return to, and interval snapshots above it
	// are on when its spacing is nonzero. dirtyFloor records a write at
	// the floor's cycle that the floor must capture before the next
	// cycle runs.
	snaps      snapList
	dirtyFloor bool
}

// The built-in instruction set and register description are read-only
// once built, so every machine shares one copy instead of recompiling
// every descriptor's expression per build.
var (
	defaultSet  = sync.OnceValue(isa.RV32IMF)
	defaultRegs = sync.OnceValue(isa.NewRegisterFile)
)

// Program is a compiled program: the assembled instructions, the pristine
// memory image and every table that depends only on the program and the
// instruction set (docs/architecture.md). It is immutable and safe to
// share: any number of machines, on any architectures with the memory
// shape it was assembled for, may be built from one Program concurrently.
type Program struct {
	core *core.Program
	// src is the assembly source; checkpoints embed it so Restore can
	// resolve the same Program again.
	src string
}

// Assemble compiles RISC-V assembly source into a Program laid out for
// memories of the given shape.
func Assemble(src string, mem MemoryConfig) (*Program, error) {
	set, regs := defaultSet(), defaultRegs()
	image := memory.New(mem)
	code, err := asm.Assemble(src, set, regs, image)
	if err != nil {
		return nil, err
	}
	return &Program{core: core.NewProgram(regs, code, image), src: src}, nil
}

// RetainedBytes estimates the memory the Program keeps alive (source,
// image and per-instruction tables), for callers that cache Programs.
func (p *Program) RetainedBytes() int { return len(p.src) + p.core.RetainedBytes() }

// NewMachine builds a machine running the Program on the given
// architecture. entry names the entry label; empty means the first
// instruction. cfg.Memory must be the shape the Program was assembled for.
func (p *Program) NewMachine(cfg *Config, entry string) (*Machine, error) {
	e, err := p.core.Code().EntryPoint(entry)
	if err != nil {
		return nil, err
	}
	s, err := p.core.NewSimulation(cfg, e)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, prog: p, sim: s, entry: e}, nil
}

// NewFromAsm assembles RISC-V assembly source and builds a machine. entry
// names the entry label; empty means the first instruction.
func NewFromAsm(cfg *Config, src, entry string) (*Machine, error) {
	p, err := Assemble(src, cfg.Memory)
	if err != nil {
		return nil, err
	}
	return p.NewMachine(cfg, entry)
}

// Step advances one clock cycle.
func (m *Machine) Step() {
	m.sealFloor()
	m.sim.Step()
	m.maybeSnapshot()
}

// StepN advances up to n cycles, stopping early on halt. It returns the
// cycles actually executed.
func (m *Machine) StepN(n uint64) uint64 { return m.runForward(n) }

// Run simulates until the program ends or maxCycles elapse.
func (m *Machine) Run(maxCycles uint64) uint64 { return m.runForward(maxCycles) }

// StepBack rewinds one cycle (the paper's backward simulation: a
// deterministic forward re-run, §III-B). With interval snapshots enabled
// the re-run starts from the nearest snapshot instead of cycle zero.
func (m *Machine) StepBack() error {
	if m.sim.Cycle() == 0 {
		return errors.New("sim: already at cycle 0")
	}
	return m.rewindTo(m.sim.Cycle() - 1)
}

// GotoCycle repositions the simulation at an arbitrary cycle (used by the
// debug log's click-to-navigate).
func (m *Machine) GotoCycle(target uint64) error {
	if target >= m.sim.Cycle() {
		m.runForward(target - m.sim.Cycle())
		return nil
	}
	return m.rewindTo(target)
}

// Cycle returns the executed cycle count.
func (m *Machine) Cycle() uint64 { return m.sim.Cycle() }

// Halted reports whether the simulation ended.
func (m *Machine) Halted() bool { return m.sim.Halted() }

// HaltReason describes why the simulation ended.
func (m *Machine) HaltReason() string { return m.sim.HaltReason() }

// Exception returns the raised exception, or nil.
func (m *Machine) Exception() *Exception { return m.sim.Exception() }

// Report builds the full runtime-statistics document.
func (m *Machine) Report() *Report { return m.sim.Report() }

// State captures a complete processor snapshot.
func (m *Machine) State(includeLog bool) *State { return m.sim.State(includeLog) }

// Log returns the debug log.
func (m *Machine) Log() []LogEntry { return m.sim.Log() }

// SetVerboseLog toggles per-event debug logging (commit and pipeline-flush
// lines). Off by default, so the hot loop formats no log messages; halts
// and exceptions are always logged.
func (m *Machine) SetVerboseLog(v bool) { m.sim.VerboseLog = v }

// IntReg reads an architectural integer register by name or ABI alias.
func (m *Machine) IntReg(name string) (int32, error) {
	d, ok := m.prog.core.Registers().Lookup(name)
	if !ok || d.Class != isa.RegInt {
		return 0, fmt.Errorf("sim: no integer register %q", name)
	}
	return m.sim.Registers().ArchValue(isa.RegInt, d.Index).Int(), nil
}

// FloatReg reads an architectural float register by name or ABI alias.
func (m *Machine) FloatReg(name string) (float64, error) {
	d, ok := m.prog.core.Registers().Lookup(name)
	if !ok || d.Class != isa.RegFloat {
		return 0, fmt.Errorf("sim: no float register %q", name)
	}
	return m.sim.Registers().ArchValue(isa.RegFloat, d.Index).Double(), nil
}

// SetIntReg initializes an architectural integer register (before
// running: a write at the floor's cycle, cycle 0 unless the engine
// changed, is part of the floor, which rewinds and forks start from).
func (m *Machine) SetIntReg(name string, v int32) error {
	d, ok := m.prog.core.Registers().Lookup(name)
	if !ok || d.Class != isa.RegInt {
		return fmt.Errorf("sim: no integer register %q", name)
	}
	m.sim.Registers().SetArchValue(isa.RegInt, d.Index, expr.NewInt(v))
	if m.sim.Cycle() == m.snaps.floor.cycle {
		m.dirtyFloor = true
	}
	return nil
}

// ReadMemory copies n bytes at addr from simulated memory.
func (m *Machine) ReadMemory(addr, n int) ([]byte, error) {
	b, exc := m.sim.Memory().ReadBytes(addr, n)
	if exc != nil {
		return nil, exc
	}
	return b, nil
}

// WriteMemory stores bytes into simulated memory (memory editor). Like
// SetIntReg, a write at the floor's cycle is part of the floor.
func (m *Machine) WriteMemory(addr int, b []byte) error {
	if exc := m.sim.Memory().WriteBytes(addr, b); exc != nil {
		return exc
	}
	if m.sim.Cycle() == m.snaps.floor.cycle {
		m.dirtyFloor = true
	}
	return nil
}

// LookupLabel resolves a data label to its address and size.
func (m *Machine) LookupLabel(name string) (addr, size int, ok bool) {
	p, ok := m.sim.Memory().Lookup(name)
	if !ok {
		return 0, 0, false
	}
	return p.Addr, p.Size, true
}

// HexDump renders memory for the memory window.
func (m *Machine) HexDump(addr, n int) (string, error) {
	return m.sim.Memory().HexDump(addr, n)
}

// SetTracer attaches (nil detaches) a pipeline-trace sink. Tracing starts
// at the machine's current cycle; a machine restored from a checkpoint
// and given the same tracer emits events identical to an uninterrupted
// traced run from that cycle (the core is deterministic). Backward steps
// and GotoCycle replay silently — the replay itself emits nothing — and
// the tracer stays attached, so forward steps after a rewind re-emit
// those cycles as they re-execute (a debugger view redraws them; the
// events are byte-identical to the first pass, but an accumulating
// collector like the Ring counts them again — Reset it after rewinding
// if duplicates matter).
func (m *Machine) SetTracer(t Tracer) { m.sim.SetTracer(t) }

// SetEngineMode selects the semantic engine: the specialized fast path
// (default) or the forced expression interpreter. Timing is engine-
// independent, so two runs of the same program in different modes are
// cycle-identical exactly when the engines' semantics agree — the
// invariant the co-simulation fuzzer checks (docs/fuzzing.md). The mode
// is a runtime knob: it is not part of the architecture configuration
// and is not recorded in checkpoints. Leaving EngineFastForward above
// the floor moves the floor to the current state (fastforward.go): the
// fast-forwarded region has no timing history.
func (m *Machine) SetEngineMode(mode EngineMode) {
	leaving := m.sim.EngineMode() == EngineFastForward && mode != EngineFastForward
	m.sim.SetEngineMode(mode)
	if leaving && m.sim.Cycle() > m.snaps.floor.cycle {
		m.moveFloor()
	}
}

// PC returns the next fetch program counter (a code index).
func (m *Machine) PC() int { return m.sim.PC() }

// Committed returns the committed instruction count so far.
func (m *Machine) Committed() uint64 { return m.sim.Committed() }

// Program returns the compiled program the machine runs; further machines
// may be built from it.
func (m *Machine) Program() *Program { return m.prog }

// Sim exposes the underlying core simulation for advanced integrations
// (the render package, benches).
func (m *Machine) Sim() *core.Simulation { return m.sim }

// ---------------------------------------------------------------------------
// Cost model (paper §V future work: chip area and power estimation)
// ---------------------------------------------------------------------------

// CostReport is the chip-area and energy/power estimate.
type CostReport = costmodel.Report

// EstimateCost prices the machine's architecture and, using the current
// run's statistics, its energy and average power.
func (m *Machine) EstimateCost() *CostReport {
	return costmodel.Estimate(m.cfg, m.Report())
}

// EstimateCostFor prices an architecture with an existing statistics report
// (e.g. one received over the server API).
func EstimateCostFor(cfg *Config, rep *Report) *CostReport {
	return costmodel.Estimate(cfg, rep)
}
