package core

import "fmt"

// Debugging support: breakpoints and memory watchpoints, the code-
// development features the paper lists as future work (§V: "adding
// breakpoints, watches, ...").
//
// Semantics are commit-ordered, which is the only well-defined program
// order in an out-of-order core: a breakpoint pauses the simulation when
// the instruction at the breakpoint PC is about to commit; a watchpoint
// pauses right after a store to the watched range commits. Pausing does
// not end the simulation — Resume() continues past the trigger.

// watchRange is one watched memory region.
type watchRange struct {
	addr int
	size int
}

// AddBreakpoint pauses the simulation when the instruction at pc is about
// to commit.
func (s *Simulation) AddBreakpoint(pc int) error {
	if pc < 0 || pc >= len(s.prog.instrs) {
		return fmt.Errorf("core: breakpoint pc %d outside code of %d instructions", pc, len(s.prog.instrs))
	}
	if s.breakpoints == nil {
		s.breakpoints = make(map[int]bool)
	}
	s.breakpoints[pc] = true
	return nil
}

// RemoveBreakpoint deletes a breakpoint.
func (s *Simulation) RemoveBreakpoint(pc int) {
	delete(s.breakpoints, pc)
}

// Breakpoints lists the active breakpoint PCs.
func (s *Simulation) Breakpoints() []int {
	out := make([]int, 0, len(s.breakpoints))
	for pc := range s.breakpoints {
		out = append(out, pc)
	}
	// Deterministic order for display.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// AddWatch pauses the simulation when a committed store touches
// [addr, addr+size).
func (s *Simulation) AddWatch(addr, size int) error {
	if size <= 0 || addr < 0 || addr+size > s.mem.Size() {
		return fmt.Errorf("core: watch range [%d,%d) outside memory of %d bytes", addr, addr+size, s.mem.Size())
	}
	s.watches = append(s.watches, watchRange{addr: addr, size: size})
	return nil
}

// Paused reports whether a breakpoint or watchpoint paused the simulation.
func (s *Simulation) Paused() bool { return s.paused }

// PauseReason describes the trigger.
func (s *Simulation) PauseReason() string { return s.pauseReason }

// Resume clears the pause and arms a one-shot pass so the instruction that
// triggered a breakpoint can commit without immediately re-triggering.
func (s *Simulation) Resume() {
	s.paused = false
	s.pauseReason = ""
	if head := s.rob.Head(); head != nil {
		s.bpSkipID = head.ID
	}
}

// checkBreakpoint reports whether committing si should pause instead.
func (s *Simulation) checkBreakpoint(si *SimInstr, now uint64) bool {
	if len(s.breakpoints) == 0 || !s.breakpoints[si.PC] {
		return false
	}
	if s.bpSkipID == si.ID {
		return false // resumed past this trigger
	}
	s.paused = true
	s.pauseReason = fmt.Sprintf("breakpoint at pc=%d (%s)", si.PC, si.Static.String())
	s.logf(now, "paused: %s", s.pauseReason)
	return true
}

// checkWatches pauses after a committed store to a watched range.
func (s *Simulation) checkWatches(si *SimInstr, now uint64) {
	if len(s.watches) == 0 {
		return
	}
	w := si.Static.Desc.MemWidth
	for _, wr := range s.watches {
		if si.effAddr < wr.addr+wr.size && wr.addr < si.effAddr+w {
			s.paused = true
			s.pauseReason = fmt.Sprintf("watch hit: %s stored %d bytes at address %d (watched [%d,%d))",
				si.Static.String(), w, si.effAddr, wr.addr, wr.addr+wr.size)
			s.logf(now, "paused: %s", s.pauseReason)
			return
		}
	}
}
