package core

import (
	"riscvsim/internal/predictor"
	"riscvsim/internal/stats"
)

// fetchInfo is the pre-decoded control-flow summary of one static
// instruction, computed once per Program so the per-cycle fetch loop
// reads flags and targets from a flat array instead of walking descriptor
// fields and operand lists.
type fetchInfo struct {
	isBranch    bool
	conditional bool
	// targetKnown marks direct (PC-relative) branches whose target is
	// computable at fetch; register-indirect jumps depend on the BTB.
	targetKnown bool
	target      int
}

// fetchUnit models the fetch block: it follows predicted control flow,
// fetching up to the configured width per cycle and up to JumpsPerCycle
// taken jumps within a single cycle (paper §II-C).
type fetchUnit struct {
	// prog supplies the instructions and their pre-decoded control flow
	// (finfo, nextBranch): a straight-line span [i, nextBranch[i]) is
	// batched without per-PC control-flow checks.
	prog  *Program
	pred  *predictor.Predictor
	width int
	jumps int

	pc           int
	stalledUntil uint64    // flush-penalty stall
	waitBranch   *SimInstr // jalr with unknown target: fetch parked

	// ledger is the simulation's; fetch counts Fetched and FetchStalls.
	ledger *stats.Counters
}

func newFetchUnit(prog *Program, pred *predictor.Predictor, width, jumps, entry int, ledger *stats.Counters) *fetchUnit {
	return &fetchUnit{prog: prog, pred: pred, width: width, jumps: jumps, pc: entry, ledger: ledger}
}

// AtEnd reports whether the PC has run off the code segment (the program
// finished: the final `ret` jumps to the sentinel return address).
func (f *fetchUnit) AtEnd() bool {
	return f.waitBranch == nil && (f.pc < 0 || f.pc >= len(f.prog.instrs))
}

// Stalled reports whether fetch cannot proceed this cycle.
func (f *fetchUnit) Stalled(now uint64) bool {
	return now < f.stalledUntil || f.waitBranch != nil
}

// Redirect points fetch at a resolved branch target, clearing a
// wait-for-target stall; penalty > 0 additionally applies the flush
// penalty (mispredict recovery).
func (f *fetchUnit) Redirect(target int, now uint64, penalty int) {
	f.pc = target
	f.waitBranch = nil
	if penalty > 0 {
		f.stalledUntil = now + uint64(penalty)
	}
}

// ClearWait drops the parked branch if it was squashed by an older
// mispredict.
func (f *fetchUnit) ClearWait(si *SimInstr) {
	if f.waitBranch == si {
		f.waitBranch = nil
	}
}

// Fetch appends up to width instructions to the decode buffer out,
// following predictions, and returns it. Instruction instances come from
// the simulation's free list.
func (f *fetchUnit) Fetch(now uint64, room int, s *Simulation, out []*SimInstr) []*SimInstr {
	if f.Stalled(now) {
		f.ledger.FetchStalls++
		return out
	}
	start := len(out)
	room = min(room, f.width)
	jumpsTaken := 0
	for len(out)-start < room {
		if f.pc < 0 || f.pc >= len(f.prog.instrs) {
			break
		}
		// Straight-line span: everything up to the next branch fetches in
		// one batch with no per-PC control-flow checks — same
		// instructions, same order, same cycle as the scalar walk.
		if nb := int(f.prog.nextBranch[f.pc]); f.pc < nb {
			end := f.pc + room - (len(out) - start)
			if end > nb {
				end = nb
			}
			for ; f.pc < end; f.pc++ {
				si := s.newInstr(f.prog.instrs[f.pc], f.pc, now)
				f.ledger.Fetched++
				out = append(out, si)
			}
			continue
		}
		st := f.prog.instrs[f.pc]
		fi := &f.prog.finfo[f.pc]
		si := s.newInstr(st, f.pc, now)
		f.ledger.Fetched++
		out = append(out, si)

		if !fi.isBranch {
			f.pc++
			continue
		}

		pred := f.pred.Predict(f.pc, fi.conditional)
		si.predTaken = pred.Taken || !fi.conditional

		// Direct targets are computable at fetch (pre-decode); only
		// register-indirect jumps (jalr) depend on the BTB.
		targetKnown := fi.targetKnown
		target := fi.target
		if !targetKnown && pred.BTBHit {
			target = pred.Target
			targetKnown = true
		}

		if !si.predTaken {
			si.predTarget = f.pc + 1
			f.pc++
			continue
		}
		if !targetKnown {
			// Unknown indirect target: park fetch until the branch
			// resolves (no wrong path is fetched).
			si.predStall = true
			f.waitBranch = si
			break
		}
		si.predTarget = target
		f.pc = target
		jumpsTaken++
		if jumpsTaken >= f.jumps {
			break
		}
	}
	return out
}
