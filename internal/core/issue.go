package core

import (
	"riscvsim/internal/isa"
	"riscvsim/internal/rename"
)

// issueWindow is the reservation-station pool in front of one functional
// unit class (the paper's "issue windows for the FX and FP ALUs, branch
// unit, and load/store components", §II-A).
type issueWindow struct {
	class    isa.FUClass
	capacity int
	waiting  []*SimInstr

	// Statistics.
	occupancySum uint64
	fullStalls   uint64
}

func newIssueWindow(class isa.FUClass, capacity int) *issueWindow {
	return &issueWindow{class: class, capacity: capacity}
}

// Full reports whether the window cannot accept another instruction.
func (w *issueWindow) Full() bool { return len(w.waiting) >= w.capacity }

// Len returns the current occupancy.
func (w *issueWindow) Len() int { return len(w.waiting) }

// Insert places a renamed instruction into the window.
func (w *issueWindow) Insert(si *SimInstr) {
	if w.Full() {
		panic("core: issue window overflow " + w.class.String())
	}
	w.waiting = append(w.waiting, si)
}

// SelectReady picks the oldest instruction whose operands are all
// available and that the unit supports, removing it from the window.
// Returns nil when nothing is ready.
func (w *issueWindow) SelectReady(rf *rename.File, fu *FU) *SimInstr {
	for i, si := range w.waiting {
		if !fu.Supports(si) {
			continue
		}
		if si.srcsReady(rf) {
			w.waiting = append(w.waiting[:i], w.waiting[i+1:]...)
			return si
		}
	}
	return nil
}

// RemoveSquashed drops wrong-path instructions after a flush.
func (w *issueWindow) RemoveSquashed() {
	kept := w.waiting[:0]
	for _, si := range w.waiting {
		if !si.Squashed {
			kept = append(kept, si)
		}
	}
	for i := len(kept); i < len(w.waiting); i++ {
		w.waiting[i] = nil
	}
	w.waiting = kept
}

// CountOccupancy accumulates the mean-occupancy statistic.
func (w *issueWindow) CountOccupancy() {
	w.occupancySum += uint64(len(w.waiting))
	if w.Full() {
		w.fullStalls++
	}
}
