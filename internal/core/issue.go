package core

import (
	"riscvsim/internal/isa"
	"riscvsim/internal/rename"
	"riscvsim/internal/stats"
)

// Wakeup/select (docs/architecture.md "Issue"): a window's candidates are
// the entries a visit can change; every other entry is blocked on a tag
// without a value and waits on that tag's list until writeback.

// issueWindow is the reservation-station pool in front of one functional
// unit class (the paper's "issue windows for the FX and FP ALUs, branch
// unit, and load/store components", §II-A). Its entries live in issueSlots.
type issueWindow struct {
	class    isa.FUClass
	capacity int
	n        int
	// cands holds the slots of the candidates, oldest first.
	cands []int32

	// ledger is the simulation's: the window books its occupancy and
	// full cycles into WindowOccSum and WindowStalls up to bookedAt
	// (resize).
	ledger   *stats.Counters
	bookedAt uint64
}

func newIssueWindow(class isa.FUClass, capacity int, ledger *stats.Counters) *issueWindow {
	return &issueWindow{class: class, capacity: capacity, cands: make([]int32, 0, capacity), ledger: ledger}
}

// Full reports whether the window cannot accept another instruction.
func (w *issueWindow) Full() bool { return w.n >= w.capacity }

// settle adds the occupancy and full cycles since bookedAt, up to the
// counted-cycle clock, to c.
func (w *issueWindow) settle(c *stats.Counters, clock uint64) {
	span := clock - w.bookedAt
	c.WindowOccSum += span * uint64(w.n)
	if w.Full() {
		c.WindowStalls += span
	}
}

// resize books the occupancy so far and changes it by delta.
func (w *issueWindow) resize(delta int, clock uint64) {
	w.settle(w.ledger, clock)
	w.bookedAt = clock
	w.n += delta
}

// issueSlots holds every window entry at the ROB slot of its instruction
// (window entries are a subset of the ROB, which holds the pointer), plus
// the per-tag waiter lists; both are sized at construction.
type issueSlots struct {
	slot []issueSlot
	// waitHead gives each rename tag's first waiting slot. Links hold
	// slot+1, so the zero value is an empty list.
	waitHead []int32
}

// issueSlot is one window entry with what select and wakeup read of it,
// so they never dereference the instruction of an entry they skip.
type issueSlot struct {
	id    uint64 // the instruction's ID (age order); 0 = no entry
	row   int32  // the instruction's first word in fuSup
	class isa.FUClass
	next  int32 // link to the next slot waiting on the same tag
}

// addCand makes slot g a candidate of w, keeping the list oldest first.
func (q *issueSlots) addCand(w *issueWindow, g int32) {
	id := q.slot[g].id
	i := len(w.cands)
	w.cands = append(w.cands, g)
	for ; i > 0 && q.slot[w.cands[i-1]].id > id; i-- {
		w.cands[i] = w.cands[i-1]
	}
	w.cands[i] = g
}

// insertWindow places a renamed instruction, already in the ROB, into its
// class's window as a candidate.
func (s *Simulation) insertWindow(w *issueWindow, si *SimInstr) {
	if w.Full() {
		panic("core: issue window overflow " + w.class.String())
	}
	// Field by field: a literal would be built on the stack and copied in
	// wide loads that the narrow stores cannot forward to.
	g := int32(si.robIndex)
	e := &s.iq.slot[g]
	e.id, e.row, e.class = si.ID, int32(si.PC*s.supStride), w.class
	w.resize(1, s.counted)
	s.iq.addCand(w, g)
}

// selectReady visits the candidates unit fu supports, oldest first, and
// removes and returns the first that becomes ready (nil if none); each one
// found blocked moves to its tag's waiter list.
func (s *Simulation) selectReady(w *issueWindow, fu int) *SimInstr {
	q := &s.iq
	word, bit := int32(fu>>6), uint64(1)<<(fu&63)
	kept := 0
	for i, g := range w.cands {
		e := &q.slot[g]
		if s.fuSup[e.row+word]&bit == 0 {
			w.cands[kept] = g
			kept++
			continue
		}
		si := s.rob.entries[g].instr
		if tag := si.capture(s.rf); tag != rename.NoTag {
			e.next, q.waitHead[tag] = q.waitHead[tag], g+1
			continue
		}
		w.cands = w.cands[:kept+copy(w.cands[kept:], w.cands[i+1:])]
		*e = issueSlot{} // a free slot keeps nothing of its last entry
		w.resize(-1, s.counted)
		return si
	}
	w.cands = w.cands[:kept]
	return nil
}

// wake makes every entry waiting on tag a candidate again; called when the
// tag's value is written back.
func (s *Simulation) wake(tag int) {
	q := &s.iq
	for link := q.waitHead[tag]; link != 0; link = q.slot[link-1].next {
		q.addCand(s.windows[q.slot[link-1].class], link-1)
	}
	q.waitHead[tag] = 0
}

// removeSquashedFromWindows drops wrong-path instructions after a flush;
// the survivors all become candidates again (rare, and always safe).
func (s *Simulation) removeSquashedFromWindows() {
	q := &s.iq
	clear(q.waitHead)
	for _, w := range s.windows {
		w.cands = w.cands[:0]
	}
	for g := range q.slot {
		switch e := &q.slot[g]; {
		case e.id == 0:
		case s.rob.entries[g].instr == nil: // squashed out of the ROB
			s.windows[e.class].resize(-1, s.counted)
			*e = issueSlot{}
		default:
			q.addCand(s.windows[e.class], int32(g))
		}
	}
}

// windowEntries appends the entries of w to dst, oldest first.
func (s *Simulation) windowEntries(w *issueWindow, dst []*SimInstr) []*SimInstr {
	s.rob.Walk(func(si *SimInstr, _ bool) {
		if e := &s.iq.slot[si.robIndex]; e.id == si.ID && e.class == w.class {
			dst = append(dst, si)
		}
	})
	return dst
}
