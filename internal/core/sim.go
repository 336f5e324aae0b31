package core

import (
	"fmt"
	"slices"

	"riscvsim/internal/asm"
	"riscvsim/internal/cache"
	"riscvsim/internal/config"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/predictor"
	"riscvsim/internal/rename"
	"riscvsim/internal/stats"
	"riscvsim/internal/trace"
)

// LogEntry is one timestamped debug-log message (paper §II-A: "Each log
// message is timestamped with the cycle in which it was generated").
type LogEntry struct {
	Cycle uint64 `json:"cycle"`
	Msg   string `json:"msg"`
}

// logBound bounds the debug log: once it is reached the oldest half goes,
// so the newest entries are kept.
const logBound = 4096

// Simulation is one processor simulation instance: the step manager that
// owns all pipeline blocks, arranged in a queue based on their position in
// the pipeline, and calls them sequentially each clock cycle (the paper's
// BlockScheduleTask, §III-A).
type Simulation struct {
	cfg *config.CPU
	// prog is the shared, immutable compiled program (program.go); the
	// simulation only reads it. Everything below is this run's own state.
	prog  *Program
	entry int
	// mem is the working memory: a private copy of prog.image.
	mem *memory.Main

	l1    *cache.Cache
	pred  *predictor.Predictor
	rf    *rename.File
	rob   *ROB
	fus   []*FU
	lsu   *LSU
	fetch *fetchUnit

	windows [isa.NumFUClasses]*issueWindow
	iq      issueSlots
	// fuSup and supStride are units' support rows, one load closer to
	// select.
	fuSup     []uint64
	supStride int

	// decodeBuf is the fetch→decode queue; entries before decodeHead have
	// been consumed by rename (their stale pointers are never read).
	// fetchStep compacts it only when the backing array runs out.
	decodeBuf  []*SimInstr
	decodeHead int
	decodeCap  int

	// eng executes instruction semantics: specialized RV32IM fast path
	// with the expression interpreter as total fallback. engineMode
	// records the selected engine (engine.go) so replays and fresh
	// copies inherit it.
	eng        *ExecEngine
	engineMode EngineMode

	// Fast-forward mode state (blockplan.go). ffStopPC cuts block
	// execution at a code index (-1 = none); ffFlushed records that the
	// cache was made coherent after the last detailed→fast-forward
	// switch; ffScratch is the reusable instruction backing the
	// interpreter-fallback path so fast-forward stays allocation-free.
	ffStopPC  int
	ffFlushed bool
	ffScratch SimInstr

	// commitLimit freezes the committed-instruction count at an exact
	// value: commit (and fast-forward block execution) refuses to retire
	// instruction commitLimit+1 while the rest of the pipeline keeps
	// cycling. 0 = unlimited. A runtime knob like engineMode — not part
	// of encoded state — used by RunToCommitted to land on exact
	// committed-count boundaries for time-parallel interval simulation.
	commitLimit uint64

	// freeInstrs is the SimInstr free list: instances are reclaimed when
	// an instruction commits, is squashed, or (for stores) drains to the
	// cache, so steady-state stepping allocates nothing.
	freeInstrs []*SimInstr

	// ledger is the run's statistics (paper §II-D): every stage and
	// component counts into its field in place. Its Cycles is the
	// machine's clock.
	ledger stats.Counters
	nextID uint64
	// counted is the cycle clock windows and units book their occupancy
	// against (pipelineCycle); checkpoints carry settled sums, not it.
	counted uint64

	halted     bool
	haltReason string
	exception  *fault.Exception

	log        []LogEntry
	VerboseLog bool

	// tracer receives typed stage events (the structured pipeline-trace
	// subsystem). nil means tracing is off; every emission site guards
	// with a nil check so the untraced hot loop pays only that check
	// (pinned by BenchmarkSimTraceOff). traceWant and tracePCMin/Max
	// cache the tracer's filter so filtered collectors skip event
	// construction too.
	tracer     trace.Tracer
	traceWant  trace.StageMask
	tracePCMin int
	tracePCMax int // -1 = unbounded

	// units are the unit tables (fu.go), shared with this machine's
	// forks.
	units *unitTables
}

// New compiles an assembled program and builds one simulation of it. The
// memory must already contain the program's data image (asm.Assemble) and
// becomes the simulation's working memory; entry is the starting
// instruction index. It is NewProgram followed by a simulation on mem:
// callers that run one program more than once build the Program
// themselves and call NewSimulation. The descriptors hang off prog's
// instructions, so set is not consulted.
func New(cfg *config.CPU, set *isa.Set, regs *isa.RegisterFile, prog *asm.Program, mem *memory.Main, entry int) (*Simulation, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return newSimulation(cfg, NewProgram(regs, prog, mem.Clone()), mem, entry, nil)
}

func validate(cfg *config.CPU) error {
	if errs := cfg.Validate(); len(errs) > 0 {
		return fmt.Errorf("core: invalid configuration: %v", errs[0])
	}
	return nil
}

// newSimulation builds the per-run state over a compiled program and its
// working memory. Mirrors the initialization sequence of paper §III-A:
// statistics and block construction, register-file initialization and PC
// setup (the caller validated the configuration). units are the unit
// tables of a machine of p on cfg, or nil to build them.
func newSimulation(cfg *config.CPU, p *Program, mem *memory.Main, entry int, units *unitTables) (*Simulation, error) {
	if entry < 0 || (entry >= len(p.instrs) && len(p.instrs) > 0) {
		return nil, fmt.Errorf("core: entry point %d outside code of %d instructions", entry, len(p.instrs))
	}
	if units == nil {
		var err error
		if units, err = buildUnitTables(cfg, p); err != nil {
			return nil, err
		}
	}
	s := &Simulation{
		cfg:       cfg,
		prog:      p,
		entry:     entry,
		mem:       mem,
		rob:       NewROB(cfg.ROBSize),
		decodeCap: 2 * cfg.FetchWidth,
		decodeBuf: make([]*SimInstr, 0, 16*cfg.FetchWidth),
		eng:       newExecEngine(p),
		ffStopPC:  -1,
		ledger:    stats.Counters{FUs: make([]stats.FUCounters, len(cfg.Units))},
	}
	s.l1 = cache.New(cfg.Cache, mem, &s.ledger.Cache)
	s.pred = predictor.New(cfg.Predictor, &s.ledger.Predictor)
	mem.CountInto(&s.ledger.Memory)
	s.rf = rename.NewFile(cfg.RenameRegisters, &s.ledger.Rename)
	s.lsu = NewLSU(cfg.LoadBufferSize, cfg.StoreBufferSize, s.l1, &s.ledger.LSU)
	s.lsu.onRecycle = s.recycleInstr
	s.windows[isa.FX] = newIssueWindow(isa.FX, cfg.FXWindow, &s.ledger)
	s.windows[isa.FP] = newIssueWindow(isa.FP, cfg.FPWindow, &s.ledger)
	s.windows[isa.LS] = newIssueWindow(isa.LS, cfg.LSWindow, &s.ledger)
	s.windows[isa.Branch] = newIssueWindow(isa.Branch, cfg.BranchWindow, &s.ledger)
	s.iq = issueSlots{slot: make([]issueSlot, cfg.ROBSize), waitHead: make([]int32, cfg.RenameRegisters)}
	s.units, s.fuSup, s.supStride = units, units.sup, units.stride
	s.fus = make([]*FU, len(cfg.Units))
	for i := range cfg.Units {
		s.fus[i] = NewFU(&cfg.Units[i], &s.ledger.FUs[i])
		s.fus[i].lat = units.lat[i]
	}
	s.fetch = newFetchUnit(p, s.pred, cfg.FetchWidth, cfg.JumpsPerCycle, entry, &s.ledger)

	// Register initialization (paper §III-C): the call stack lives at the
	// bottom of memory and x2 (sp) points at its end; the return address
	// is a sentinel one past the code so that `ret` from the entry
	// routine leaves the code segment and drains the pipeline.
	s.rf.SetArchValue(isa.RegInt, isa.RegSP, expr.NewInt(int32(mem.StackPointerInit())))
	s.rf.SetArchValue(isa.RegInt, isa.RegRA, expr.NewInt(int32(len(p.instrs))))
	return s, nil
}

// allocInstr takes an instruction instance from the free list (zeroed) or
// allocates a fresh one. In steady state the in-flight population is
// bounded by the pipeline's buffer sizes, so the free list stops growing
// and stepping allocates nothing (pinned by TestStepAllocFree).
func (s *Simulation) allocInstr() *SimInstr {
	if n := len(s.freeInstrs); n > 0 {
		si := s.freeInstrs[n-1]
		s.freeInstrs[n-1] = nil
		s.freeInstrs = s.freeInstrs[:n-1]
		*si = SimInstr{}
		return si
	}
	return &SimInstr{}
}

// recycleInstr returns a dead instruction instance to the free list. The
// caller must guarantee nothing references it anymore: instructions are
// reclaimed at commit (non-stores), at store drain, and after a squash has
// been scrubbed from every pipeline structure.
func (s *Simulation) recycleInstr(si *SimInstr) {
	s.freeInstrs = append(s.freeInstrs, si)
}

// newInstr builds a fetched dynamic instruction from the free list.
func (s *Simulation) newInstr(st *asm.Instruction, pc int, now uint64) *SimInstr {
	si := s.allocInstr()
	s.nextID++
	si.ID = s.nextID
	si.Static = st
	si.PC = pc
	si.Phase = PhaseFetched
	si.FetchedAt = now
	return si
}

// pendingDecode returns the not-yet-renamed tail of the decode buffer.
func (s *Simulation) pendingDecode() []*SimInstr {
	return s.decodeBuf[s.decodeHead:]
}

func (s *Simulation) logf(now uint64, format string, args ...any) {
	if len(s.log) >= logBound {
		// Keep the newest entries: drop the oldest half by re-slicing —
		// no element copying here; append reclaims the dead prefix the
		// next time it grows the slice.
		s.log = s.log[len(s.log)-logBound/2:]
	}
	s.log = append(s.log, LogEntry{Cycle: now, Msg: fmt.Sprintf(format, args...)})
}

// SetTracer attaches (or with nil detaches) the pipeline-trace sink. The
// LSU gets a forwarding hook so load completions report from lsu.go with
// the same nil-guarded discipline. A sink exposing a stage filter
// (trace.Filterer, e.g. the Ring) lets the emission sites skip unwanted
// stages before building the event at all.
func (s *Simulation) SetTracer(t trace.Tracer) {
	s.tracer = t
	if t == nil {
		s.traceWant = 0
		s.lsu.onTrace = nil
		return
	}
	s.traceWant = trace.WantedStages(t)
	s.tracePCMin, s.tracePCMax = 0, -1
	if f, ok := t.(trace.Filterer); ok {
		flt := f.Filter()
		s.tracePCMin, s.tracePCMax = flt.PCMin, flt.PCMax
	}
	if s.traceWant.Has(trace.StageWriteback) {
		s.lsu.onTrace = func(now uint64, si *SimInstr, st trace.Stage, detail string) {
			s.emit(now, si, st, detail)
		}
	} else {
		s.lsu.onTrace = nil
	}
}

// Tracer returns the attached pipeline-trace sink, or nil.
func (s *Simulation) Tracer() trace.Tracer { return s.tracer }

// tracing reports whether the stage should be emitted: a tracer is
// attached and wants it. The nil comparison comes first so the untraced
// hot path pays a single predictable branch.
func (s *Simulation) tracing(st trace.Stage) bool {
	return s.tracer != nil && s.traceWant.Has(st)
}

// emit forwards one stage transition to the tracer. Callers must guard
// with s.tracer != nil so the trace-off hot path pays only that check
// (and never builds the event or its detail string). The cached
// PC-range filter short-circuits here, before the disassembly text is
// formatted — the expensive part of event construction.
func (s *Simulation) emit(now uint64, si *SimInstr, st trace.Stage, detail string) {
	if si.PC < s.tracePCMin || (s.tracePCMax >= 0 && si.PC > s.tracePCMax) {
		return
	}
	s.tracer.Trace(trace.StageEvent{
		Cycle:   now,
		InstrID: si.ID,
		PC:      si.PC,
		Disasm:  si.Static.String(),
		Stage:   st,
		Detail:  detail,
	})
}

// Cycle returns the number of executed cycles.
func (s *Simulation) Cycle() uint64 { return s.ledger.Cycles }

// Halted reports whether the simulation has ended.
func (s *Simulation) Halted() bool { return s.halted }

// HaltReason describes why the simulation ended.
func (s *Simulation) HaltReason() string { return s.haltReason }

// Exception returns the raising exception, if the program faulted.
func (s *Simulation) Exception() *fault.Exception { return s.exception }

// Memory exposes the simulated memory (for dumps and the memory window).
func (s *Simulation) Memory() *memory.Main { return s.mem }

// Cache exposes the L1 cache (GUI cache pane).
func (s *Simulation) Cache() *cache.Cache { return s.l1 }

// Registers exposes the register files.
func (s *Simulation) Registers() *rename.File { return s.rf }

// Log returns the debug log entries.
func (s *Simulation) Log() []LogEntry { return s.log }

// Step advances the simulation by one clock cycle, calling all blocks in
// pipeline order: commit first, then the memory unit, the functional
// units' completion sub-step, issue (the FUs' load sub-step), rename and
// fetch — so one instruction can leave and another enter a unit within a
// single cycle (paper §III-A).
func (s *Simulation) Step() {
	if s.halted {
		return
	}
	if s.engineMode == EngineFastForward {
		// Fused basic-block execution: one Step = one block (or one
		// drain cycle of a detailed prefix) — see blockplan.go.
		s.ffStep()
		return
	}
	s.pipelineCycle(true)
}

// pipelineCycle runs the blocks for one cycle; a fast-forward drain cycle
// (detailed false) neither fetches nor counts toward the statistics.
func (s *Simulation) pipelineCycle(detailed bool) {
	now := s.ledger.Cycles + 1
	s.commitStep(now)
	if !s.halted {
		s.memoryStep(now)
		s.completeStep(now)
		s.issueStep(now)
		s.renameStep(now)
		if detailed {
			s.fetchStep(now)
		}
	}
	if detailed {
		s.ledger.ROBOccSum += uint64(s.rob.Len())
		s.counted++
	}
	s.ledger.Cycles = now
	s.checkPipelineEmpty(now)
}

// Run advances until the simulation halts or maxCycles elapse. It returns
// the number of cycles executed in this call.
func (s *Simulation) Run(maxCycles uint64) uint64 {
	start := s.ledger.Cycles
	for !s.halted && s.ledger.Cycles-start < maxCycles {
		s.Step()
	}
	return s.ledger.Cycles - start
}

// RunToCommitted advances until exactly target instructions have
// committed (or the simulation halts / maxCycles elapse). Unlike Run, the
// stop point is exact in committed-instruction space: a temporary commit
// limit keeps the final cycle from retiring past the boundary even on a
// multi-wide commit stage, and cuts fused fast-forward blocks mid-block.
// Committed-count boundaries are the coordinate system of time-parallel
// interval simulation — two runs stopped at the same committed count have
// identical architectural state regardless of engine or timing path.
// It returns the number of cycles executed in this call.
func (s *Simulation) RunToCommitted(target, maxCycles uint64) uint64 {
	prev := s.commitLimit
	s.commitLimit = target
	start := s.ledger.Cycles
	for !s.halted && s.ledger.Committed < target && s.ledger.Cycles-start < maxCycles {
		s.Step()
	}
	s.commitLimit = prev
	return s.ledger.Cycles - start
}

// DrainCoherent makes the memory hierarchy architecturally coherent —
// committed stores drained from the store buffer, dirty cache lines
// written back — so ArchHash observes the full memory image mid-run (the
// halt paths do this implicitly). It perturbs timing state (lines become
// clean), so callers either discard the machine afterwards or accept the
// perturbation; in-flight speculative state is untouched.
func (s *Simulation) DrainCoherent() {
	s.lsu.DrainAll(s.ledger.Cycles)
	s.l1.FlushAll(s.ledger.Cycles)
}

// ---------------------------------------------------------------------------
// Pipeline stages
// ---------------------------------------------------------------------------

func (s *Simulation) commitStep(now uint64) {
	for n := 0; n < s.cfg.CommitWidth; n++ {
		if s.commitLimit != 0 && s.ledger.Committed >= s.commitLimit {
			return
		}
		if s.rob.Empty() || !s.rob.HeadDone() {
			if n == 0 && !s.rob.Empty() {
				s.ledger.CommitStalls++
			}
			return
		}
		si := s.rob.Pop()
		si.Phase = PhaseCommitted
		si.CommittedAt = now
		if s.tracing(trace.StageCommit) {
			detail := ""
			if si.Exc.Occurred() {
				detail = "exception: " + si.Exc.Error()
			} else if si.Static.Desc.Halts {
				detail = "halt"
			}
			s.emit(now, si, trace.StageCommit, detail)
		}

		// The existence of an exception is checked when the
		// instruction is committed (paper §III-B).
		if si.Exc.Occurred() {
			s.haltWithException(si.Exc, now)
			return
		}
		if si.IsBranch() {
			s.pred.Update(si.PC, si.Static.Desc.Conditional,
				si.actualTaken, si.actualTgt, !si.mispredict)
		}
		if si.hasDest {
			s.rf.Commit(si.destTag)
		}
		if si.IsStore() {
			s.lsu.OnCommitStore(si)
		}
		s.ledger.Committed++
		s.ledger.DynamicMix[si.Static.Desc.Type]++
		s.ledger.Flops += uint64(si.Static.Desc.Flops)
		if s.VerboseLog {
			s.logf(now, "commit %s", si)
		}
		if si.Static.Desc.Halts {
			s.halted = true
			s.haltReason = fmt.Sprintf("%s executed (the simulator runs no OS; environment calls end the program)", si.Static.Desc.Name)
			s.logf(now, "halt: %s", s.haltReason)
			s.lsu.DrainAll(now)
			s.l1.FlushAll(now)
			return
		}
		// A committed non-store is referenced by nothing anymore (its ROB
		// slot was popped, and loads left the load buffer at completion);
		// stores are reclaimed by the LSU once they drain to the cache.
		if !si.IsStore() {
			s.recycleInstr(si)
		}
	}
}

func (s *Simulation) memoryStep(now uint64) {
	completed, storeExc := s.lsu.Step(now)
	for _, ld := range completed {
		if ld.Squashed {
			continue
		}
		ld.MemoryAt = now
		if ld.hasDest {
			if ld.Exc.Occurred() {
				s.rf.SetValue(ld.destTag, expr.NewInt(0))
			} else {
				s.rf.SetValue(ld.destTag, LoadValue(ld.Static.Desc, ld.storeData))
			}
			s.wake(ld.destTag)
		}
		s.rob.MarkDone(ld)
		ld.Phase = PhaseDone
	}
	if storeExc != nil {
		s.haltWithException(storeExc, now)
	}
}

func (s *Simulation) completeStep(now uint64) {
	for _, fu := range s.fus {
		if fu.minDone > now {
			continue
		}
		for _, si := range fu.ReleaseDone(now, s.counted) {
			s.completeInstr(si, now)
		}
	}
}

// completeInstr handles one instruction leaving a functional unit.
func (s *Simulation) completeInstr(si *SimInstr, now uint64) {
	{
		if si.Squashed {
			return
		}
		si.ExecutedAt = now
		desc := si.Static.Desc
		if s.tracing(trace.StageExecute) {
			detail := ""
			switch {
			case desc.IsBranch():
				if si.actualTaken {
					detail = fmt.Sprintf("taken->%d", si.actualTgt)
				} else {
					detail = "not-taken"
				}
				if si.mispredict {
					detail += " mispredict"
				}
			case desc.IsLoad(), desc.IsStore():
				detail = fmt.Sprintf("addr=%d", si.effAddr)
			}
			if si.Exc.Occurred() {
				detail = "exception: " + si.Exc.Error()
			}
			s.emit(now, si, trace.StageExecute, detail)
		}
		switch {
		case desc.IsBranch():
			s.writebackDest(si, now)
			s.rob.MarkDone(si)
			si.Phase = PhaseDone
			switch {
			case si.Exc.Occurred():
				// Raised at commit; no redirect on a faulting branch.
			case si.mispredict:
				s.flushAfter(si, now)
			case si.predStall:
				// Fetch was parked on this unknown-target jump;
				// resume it at the resolved target without a
				// flush (nothing wrong-path was fetched).
				s.fetch.Redirect(si.actualTgt, now, 0)
				if s.VerboseLog {
					// Gated: indirect-call-heavy code resolves a
					// parked jump per dispatch.
					s.logf(now, "fetch resumed at %d after %s", si.actualTgt, si)
				}
			}
		case desc.IsLoad():
			// Address generation finished; the load now waits on the
			// memory unit (it stays in the load buffer).
			si.addrReady = true
			si.Phase = PhaseMemory
			if exc := s.checkAddress(si.Static, si.effAddr); exc != nil {
				si.raise(exc, now)
			}
			if si.Exc.Occurred() {
				// AGU fault: complete immediately, raise at commit.
				si.memIssued = true
				si.memDoneAt = now
			}
		case desc.IsStore():
			si.addrReady = true
			if exc := s.checkAddress(si.Static, si.effAddr); exc != nil {
				si.raise(exc, now)
			}
			s.rob.MarkDone(si)
			si.Phase = PhaseDone
		default:
			s.writebackDest(si, now)
			s.rob.MarkDone(si)
			si.Phase = PhaseDone
		}
	}
}

// checkAddress validates a computed effective address against the memory
// capacity, for the detailed pipeline and fast-forward alike so both fault
// with the same story. Accesses to unauthorized addresses raise at the
// instruction's own commit (paper §III-B). The call stack takes the
// bottom of memory and grows down, so an access below address 0 through
// sp has run off the space reserved for it: a stack overflow.
func (s *Simulation) checkAddress(in *asm.Instruction, addr int) *fault.Exception {
	d := in.Desc
	if addr >= 0 && addr+d.MemWidth <= s.mem.Size() {
		return nil
	}
	if base := in.Op("rs1"); addr < 0 && base != nil && base.Reg == isa.RegSP {
		return fault.New(fault.StackOverflow,
			"%s accesses %d bytes at address %d, below the %d-byte call stack",
			d.Name, d.MemWidth, addr, s.mem.Config().CallStackSize)
	}
	return fault.New(fault.InvalidMemoryAccess,
		"%s accesses %d bytes at address %d outside memory of %d bytes",
		d.Name, d.MemWidth, addr, s.mem.Size())
}

// writebackDest publishes the computed result to the rename file; faulting
// instructions publish a zero so commit bookkeeping stays consistent (the
// exception is raised at commit anyway).
func (s *Simulation) writebackDest(si *SimInstr, now uint64) {
	if !si.hasDest {
		return
	}
	if si.resultReady {
		s.rf.SetValue(si.destTag, si.result)
	} else {
		s.rf.SetValue(si.destTag, expr.NewInt(0))
	}
	s.wake(si.destTag)
	if s.tracing(trace.StageWriteback) {
		s.emit(now, si, trace.StageWriteback, rename.TagName(si.destTag))
	}
}

func (s *Simulation) issueStep(now uint64) {
	for i, fu := range s.fus {
		w := s.windows[fu.class]
		if len(w.cands) == 0 || !fu.CanAccept(now) {
			continue
		}
		if si := s.selectReady(w, i); si != nil {
			fu.Accept(si, now, s.counted, s.eng)
			if s.tracing(trace.StageIssue) {
				s.emit(now, si, trace.StageIssue, fu.Name())
			}
		}
	}
}

func (s *Simulation) renameStep(now uint64) {
	n := 0
	for s.decodeHead < len(s.decodeBuf) && n < s.cfg.FetchWidth {
		si := s.decodeBuf[s.decodeHead]
		desc := si.Static.Desc
		if s.rob.Full() {
			s.ledger.DecodeStalls++
			return
		}
		w := s.windows[desc.Unit]
		if w.Full() {
			s.ledger.DecodeStalls++
			return
		}
		if (desc.IsLoad() || desc.IsStore()) && !s.lsu.CanAccept(desc.IsStore()) {
			s.ledger.DecodeStalls++
			return
		}

		// Rename sources first so an instruction that reads and writes
		// the same register sees the older copy. Operand classes and
		// register indices were pre-resolved at load (renameplan.go).
		rp := &s.prog.rplans[si.PC]
		for i := 0; i < int(rp.nsrc); i++ {
			rs := &rp.srcs[i]
			ref := s.rf.LookupSrc(rs.class, int(rs.reg))
			si.srcs[i] = srcOperand{tag: int32(ref.Tag), valid: ref.Valid, value: ref.Value}
		}
		si.nsrc = rp.nsrc

		// Rename the destination; a write to x0 is architecturally
		// discarded and allocates nothing (hasDest pre-excludes it).
		if rp.hasDest {
			tag, prev, ok := s.rf.Alloc(rp.destClass, int(rp.destReg))
			if !ok {
				// Rename file exhausted: undo source refs and stall.
				si.releaseRefs(s.rf)
				si.srcs, si.nsrc = [maxSrcOperands]srcOperand{}, 0
				return
			}
			si.hasDest = true
			si.destClass = rp.destClass
			si.destReg = int(rp.destReg)
			si.destTag = tag
			si.destPrev = prev
		}

		s.rob.Push(si)
		if desc.IsLoad() || desc.IsStore() {
			s.lsu.Add(si)
		}
		s.insertWindow(w, si)
		si.Phase = PhaseDecoded
		si.DecodedAt = now
		if s.tracer != nil {
			if s.traceWant.Has(trace.StageDecode) {
				s.emit(now, si, trace.StageDecode, "")
			}
			if s.traceWant.Has(trace.StageRename) {
				renamed := ""
				if si.hasDest {
					renamed = rename.TagName(si.destTag)
				}
				s.emit(now, si, trace.StageRename, renamed)
			}
			if s.traceWant.Has(trace.StageDispatch) {
				s.emit(now, si, trace.StageDispatch, desc.Unit.String())
			}
		}
		s.decodeHead++
		n++
	}
}

func (s *Simulation) fetchStep(now uint64) {
	room := s.decodeCap - len(s.pendingDecode())
	if room <= 0 {
		return
	}
	// Compact only when the fetch could outgrow the backing array.
	if len(s.decodeBuf)+room > cap(s.decodeBuf) {
		s.decodeBuf = s.decodeBuf[:copy(s.decodeBuf, s.pendingDecode())]
		s.decodeHead = 0
	}
	n := len(s.decodeBuf)
	s.decodeBuf = s.fetch.Fetch(now, room, s, s.decodeBuf)
	if s.tracing(trace.StageFetch) {
		for _, si := range s.decodeBuf[n:] {
			detail := ""
			if si.IsBranch() {
				switch {
				case si.predStall:
					detail = "pred stall (unknown target)"
				case si.predTaken:
					detail = fmt.Sprintf("pred taken->%d", si.predTarget)
				default:
					detail = "pred not-taken"
				}
			}
			s.emit(now, si, trace.StageFetch, detail)
		}
	}
}

// flushAfter squashes everything younger than the mispredicted branch,
// restores the rename map, redirects fetch and applies the flush penalty.
func (s *Simulation) flushAfter(si *SimInstr, now uint64) {
	s.ledger.ROBFlushes++
	squashed := s.rob.SquashAfter(si) // youngest first
	traceSquash := s.tracing(trace.StageSquash)
	var squashDetail string
	if traceSquash {
		squashDetail = fmt.Sprintf("mispredict #%d@%d", si.ID, si.PC)
	}
	for _, sq := range squashed {
		sq.Squashed = true
		sq.Phase = PhaseSquashed
		sq.releaseRefs(s.rf)
		if sq.hasDest {
			s.rf.Squash(sq.destTag, sq.destPrev)
		}
		s.ledger.Squashed++
		if traceSquash {
			s.emit(now, sq, trace.StageSquash, squashDetail)
		}
	}
	// Everything still in the decode buffer was fetched after the branch.
	for _, d := range s.pendingDecode() {
		d.Squashed = true
		d.Phase = PhaseSquashed
		s.ledger.Squashed++
		if traceSquash {
			s.emit(now, d, trace.StageSquash, squashDetail)
		}
	}
	for _, fu := range s.fus {
		fu.AbortSquashed(s.counted)
	}
	s.removeSquashedFromWindows()
	s.lsu.RemoveSquashed()
	if s.fetch.waitBranch != nil && s.fetch.waitBranch.Squashed {
		s.fetch.ClearWait(s.fetch.waitBranch)
	}
	s.fetch.Redirect(si.actualTgt, now, s.cfg.FlushPenalty)
	if s.VerboseLog {
		// Gated: formatting the flush message costs a Sprintf per
		// misprediction, which branch-heavy workloads pay thousands of
		// times per run.
		s.logf(now, "flush: %s mispredicted (taken=%v target=%d), %d squashed, penalty %d",
			si, si.actualTaken, si.actualTgt, len(squashed), s.cfg.FlushPenalty)
	}
	// Every squashed instruction has now been scrubbed from the ROB, the
	// windows, the FUs, the LSU and the fetch unit; reclaim the instances.
	// The ROB set (renamed) and the decode tail (not yet renamed) are
	// disjoint, so nothing is recycled twice.
	for _, sq := range squashed {
		s.recycleInstr(sq)
	}
	for _, d := range s.pendingDecode() {
		s.recycleInstr(d)
	}
	s.decodeBuf = s.decodeBuf[:0]
	s.decodeHead = 0
}

func (s *Simulation) haltWithException(exc *fault.Exception, now uint64) {
	s.halted = true
	s.exception = exc
	s.haltReason = "exception: " + exc.Error()
	s.logf(now, "exception at pc=%d cycle=%d: %s", exc.PC, exc.Cycle, exc.Error())
	// Stores older than the faulting instruction have committed and are
	// architecturally performed; make them visible before the final flush.
	s.lsu.DrainAll(now)
	s.l1.FlushAll(now)
}

// checkPipelineEmpty ends the simulation when the pipeline has drained:
// fetch ran past the code (the entry routine returned to the sentinel
// address) and nothing is in flight (paper §III-A).
func (s *Simulation) checkPipelineEmpty(now uint64) {
	if s.halted {
		return
	}
	if s.fetch.AtEnd() && len(s.pendingDecode()) == 0 && s.rob.Empty() && s.lsu.Drained() {
		s.halted = true
		s.haltReason = "pipeline empty"
		s.logf(now, "halt: pipeline empty after %d committed instructions", s.ledger.Committed)
		s.l1.FlushAll(now)
	}
}

// ---------------------------------------------------------------------------
// Forks
// ---------------------------------------------------------------------------

// Fresh returns a new simulation at cycle zero of the same Program on the
// same architecture: what the sim facade's one restore decodes a snapshot
// into, for rewinds and time-parallel forks alike. It costs the per-run
// state and a copy of the image's page table; nothing is assembled or specialized
// again, and the unit tables are the original's. The semantic engine carries
// over: determinism demands a re-run computes exactly what the original did.
func (s *Simulation) Fresh() (*Simulation, error) {
	ns, err := newSimulation(s.cfg, s.prog, s.prog.image.Clone(), s.entry, s.units)
	if err != nil {
		return nil, err
	}
	ns.SetEngineMode(s.engineMode)
	return ns, nil
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Counters returns a copy of the run's statistics ledger (paper §II-D)
// with the window and unit sums booked lazily (settle) settled to now.
// Nothing is derived here: stats.NewReport owns every rate.
func (s *Simulation) Counters() stats.Counters {
	c := s.ledger
	c.FUs = slices.Clone(c.FUs)
	for _, w := range s.windows {
		w.settle(&c, s.counted)
	}
	for i, fu := range s.fus {
		fu.settle(&c.FUs[i], s.counted)
	}
	return c
}

// Facts returns what the statistics document states beside the counters:
// the architecture, the program's static mix and how the run stands now.
func (s *Simulation) Facts() stats.Facts {
	f := stats.Facts{
		Arch:        s.cfg,
		StaticMix:   s.prog.staticMix,
		HaltReason:  s.haltReason,
		RenameInUse: s.rf.Size() - s.rf.FreeCount(),
		RenameFree:  s.rf.FreeCount(),
	}
	if s.exception != nil {
		f.ExceptionMsg = s.exception.Error()
	}
	return f
}

// Report assembles the complete runtime-statistics document (paper §II-D).
func (s *Simulation) Report() *stats.Report {
	c := s.Counters()
	return stats.NewReport(&c, s.Facts())
}
