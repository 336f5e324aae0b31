package core

// Engine selection: the simulation computes instruction semantics either
// through the specialized execPlan fast path (the default) or through the
// expression interpreter forced for every instruction. Timing is identical
// either way — functional-unit latencies come from the descriptors, and
// ExecEngine.Execute is purely semantic — so a specialized run and a
// forced-interpreter run of the same program are cycle-for-cycle identical
// exactly when the two engines agree on semantics. The co-simulation
// harness (internal/fuzz) leans on that: it runs every generated program
// once per mode and compares architectural state in lockstep.
//
// The mode is a runtime knob, deliberately not part of config.CPU: it
// must not perturb configuration fingerprints, checkpoint headers or
// golden workload baselines.

// EngineMode selects how instruction semantics are computed.
type EngineMode uint8

const (
	// EngineSpecialized uses the compiled execPlan fast path, falling
	// back to the interpreter only outside the specialized subset.
	EngineSpecialized EngineMode = iota
	// EngineInterpreter forces the expression interpreter for every
	// instruction — the functional reference path.
	EngineInterpreter
	// EngineFastForward executes fused basic-block plans against the
	// architectural state only (blockplan.go): no pipeline, cache or
	// predictor modeling, one committed instruction per cycle. The
	// committed instruction stream is identical to the detailed engines
	// (ArchHash); timing statistics are not.
	EngineFastForward
)

// String names the mode for reports and error messages.
func (m EngineMode) String() string {
	switch m {
	case EngineInterpreter:
		return "interpreter"
	case EngineFastForward:
		return "fast-forward"
	}
	return "specialized"
}

// SetEngineMode selects the semantic engine. Switching mid-run is legal —
// for the semantic-only modes the knob affects how future Execute calls
// compute results; entering fast-forward first drains any in-flight
// detailed work at the next Step (blockplan.go), and leaving it resumes
// detailed fetch at the exact commit point.
func (s *Simulation) SetEngineMode(m EngineMode) {
	s.engineMode = m
	s.eng.forceGeneric = m == EngineInterpreter
	if m == EngineFastForward {
		s.prog.ffInit()
		// A detailed prefix may have written through the cache; the next
		// fast-forward block must see coherent memory (blockplan.go).
		s.ffFlushed = false
	}
}

// SetFastForwardInterpreter routes fast-forward execution through the
// expression interpreter instead of the fused specialized operations —
// the functional reference leg for co-simulating the fast-forward engine
// against itself (internal/fuzz). Only meaningful in EngineFastForward.
func (s *Simulation) SetFastForwardInterpreter(v bool) {
	s.eng.forceGeneric = v
}

// SetFFStopPC makes fast-forward execution stop when the commit point
// reaches the given code index, cutting the enclosing block at that
// instruction (any PC is a legal block boundary). -1 clears the stop.
func (s *Simulation) SetFFStopPC(pc int) { s.ffStopPC = pc }

// EngineMode returns the active semantic engine.
func (s *Simulation) EngineMode() EngineMode { return s.engineMode }

// PC returns the next fetch program counter (a code index). Cheap — the
// lockstep co-simulation harness reads it every cycle, where the full
// State snapshot would dominate the run.
func (s *Simulation) PC() int { return s.fetch.pc }

// Committed returns the number of committed instructions so far, without
// assembling a statistics report.
func (s *Simulation) Committed() uint64 { return s.ledger.Committed }
