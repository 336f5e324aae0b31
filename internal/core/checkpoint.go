package core

import (
	"slices"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/rename"
)

// Checkpoint support: explicit serialization of every pipeline structure.
//
// The in-memory model is a graph of *SimInstr shared by the ROB, the issue
// windows, the functional units, the LSU buffers, the decode buffer and
// the fetch unit. The wire format replaces that pointer identity with
// index-based encoding: every live dynamic instruction is assigned an
// index in a single instruction table (ROB order, then decode buffer,
// then committed stores draining in the LSU — a disjoint cover of the
// live set, since everything else aliases into it), and each structure
// serializes references as table indices. A restored machine is
// cycle-for-cycle deterministic with the original: same State, same
// Report, at every future step.

// liveInstrs collects every live dynamic instruction exactly once, in a
// canonical order, and returns the table plus an index lookup.
func (s *Simulation) liveInstrs() ([]*SimInstr, map[*SimInstr]int) {
	var table []*SimInstr
	s.rob.Walk(func(si *SimInstr, done bool) { table = append(table, si) })
	table = append(table, s.pendingDecode()...)
	table = append(table, s.lsu.committed...)
	idx := make(map[*SimInstr]int, len(table))
	for i, si := range table {
		idx[si] = i
	}
	return table, idx
}

// instrRef encodes a nullable instruction reference as a table index. A
// live instruction missing from the table means the disjoint-cover
// invariant of liveInstrs broke (a pipeline change left an instruction
// reachable outside ROB/decode/committed-stores); that must fail the
// checkpoint loudly, never encode a wrong-but-decodable reference.
func instrRef(w *ckpt.Writer, idx map[*SimInstr]int, si *SimInstr) {
	if si == nil {
		w.Int(-1)
		return
	}
	i, ok := idx[si]
	if !ok {
		w.Failf("pipeline references instruction %s outside the live table", si)
		return
	}
	w.Int(i)
}

// readRef resolves a table index back to an instruction (or nil for -1).
func readRef(r *ckpt.Reader, table []*SimInstr) *SimInstr {
	i := r.Int()
	if r.Err() != nil || i == -1 {
		return nil
	}
	if i < 0 || i >= len(table) {
		r.Corrupt("instruction reference %d outside table of %d", i, len(table))
		return nil
	}
	return table[i]
}

// readLive reads a reference that must name an instruction in the ROB.
func (s *Simulation) readLive(r *ckpt.Reader, table []*SimInstr) *SimInstr {
	si := readRef(r, table)
	if r.Err() == nil && (si == nil || !s.inROB(si)) {
		r.Corrupt("reference to an instruction outside the ROB")
		return nil
	}
	return si
}

// inROB reports whether si is a decoded ROB entry (instructions elsewhere
// keep robIndex 0, whose entry is some other instruction or none).
func (s *Simulation) inROB(si *SimInstr) bool {
	return s.rob.entries[si.robIndex].instr == si
}

// encodeInstr writes one dynamic instruction. The static instruction is
// referenced by its code index (PC). What the instruction's place and its
// rename plan fix is not written: a renamed instruction (one in the ROB or
// a committed store) has the plan's sources and destination, one in the
// decode buffer has none, and a live instruction is never squashed. Of a
// renamed operand only the tag, the two flags and the one value it holds
// travel.
func encodeInstr(w *ckpt.Writer, si *SimInstr) {
	w.U64(si.ID)
	w.Int(si.PC)
	w.Byte(byte(si.Phase))
	w.U64(si.FetchedAt)
	w.U64(si.DecodedAt)
	w.U64(si.IssuedAt)
	w.U64(si.ExecutedAt)
	w.U64(si.MemoryAt)
	w.U64(si.CommittedAt)
	for i := range si.srcs[:si.nsrc] {
		src := &si.srcs[i]
		w.Int(int(src.tag))
		w.Bool(src.valid)
		w.Bool(src.captured)
		if src.valid || src.captured {
			w.Value(src.value)
		}
	}
	if si.hasDest {
		w.Int(si.destTag)
		w.Int(si.destPrev)
	}
	w.Value(si.result)
	w.Bool(si.resultReady)
	w.Bool(si.predTaken)
	w.Int(si.predTarget)
	w.Bool(si.predStall)
	w.Bool(si.actualTaken)
	w.Int(si.actualTgt)
	w.Bool(si.mispredict)
	w.Int(si.effAddr)
	w.Bool(si.addrReady)
	w.U64(si.storeData)
	w.Bool(si.memIssued)
	w.U64(si.memDoneAt)
	w.Exception(si.Exc)
}

// decodeInstr reads one dynamic instruction, resolving its static
// instruction from the program; renamed says whether its place in the
// table is one of renamed instructions, and so whether it has the rename
// plan's operands.
func (s *Simulation) decodeInstr(r *ckpt.Reader, renamed bool) *SimInstr {
	si := &SimInstr{}
	si.ID = r.U64()
	si.PC = r.Int()
	if r.Err() != nil {
		return si
	}
	if si.PC < 0 || si.PC >= len(s.prog.instrs) {
		r.Corrupt("instruction pc %d outside code of %d", si.PC, len(s.prog.instrs))
		return si
	}
	si.Static = s.prog.instrs[si.PC]
	si.Phase = Phase(r.Byte())
	si.FetchedAt = r.U64()
	si.DecodedAt = r.U64()
	si.IssuedAt = r.U64()
	si.ExecutedAt = r.U64()
	si.MemoryAt = r.U64()
	si.CommittedAt = r.U64()
	rp := &s.prog.rplans[si.PC]
	if renamed {
		si.nsrc, si.hasDest = rp.nsrc, rp.hasDest
	}
	for i := range si.srcs[:si.nsrc] {
		src := &si.srcs[i]
		tag := r.Int()
		src.valid, src.captured = r.Bool(), r.Bool()
		if src.valid || src.captured {
			src.value = r.Value()
		}
		if r.Err() == nil && tag != rename.NoTag && (tag < 0 || tag >= s.rf.Size()) {
			r.Corrupt("source rename tag %d outside file of %d", tag, s.rf.Size())
		}
		src.tag = int32(tag)
	}
	if si.hasDest {
		si.destClass, si.destReg = rp.destClass, int(rp.destReg)
		si.destTag = r.Int()
		si.destPrev = r.Int()
		if r.Err() == nil && (si.destTag < 0 || si.destTag >= s.rf.Size() ||
			si.destPrev != rename.NoTag && (si.destPrev < 0 || si.destPrev >= s.rf.Size())) {
			r.Corrupt("destination rename tags %d / %d outside file of %d", si.destTag, si.destPrev, s.rf.Size())
		}
	}
	si.result = r.Value()
	si.resultReady = r.Bool()
	si.predTaken = r.Bool()
	si.predTarget = r.Int()
	si.predStall = r.Bool()
	si.actualTaken = r.Bool()
	si.actualTgt = r.Int()
	si.mispredict = r.Bool()
	si.effAddr = r.Int()
	si.addrReady = r.Bool()
	si.storeData = r.U64()
	si.memIssued = r.Bool()
	si.memDoneAt = r.U64()
	si.Exc = r.Exception()
	return si
}

// EncodeState serializes the complete simulation state (everything below
// the configuration/program level, which the caller's header carries).
func (s *Simulation) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecCore)
	w.U64(s.nextID)
	w.Bool(s.halted)
	w.String(s.haltReason)
	w.Exception(s.exception)
	w.Bool(s.VerboseLog)
	s.Counters().EncodeState(w)

	w.Section(ckpt.SecROB)
	w.Int(s.rob.head)
	w.Len(s.rob.count)
	s.rob.Walk(func(_ *SimInstr, done bool) { w.Bool(done) })

	// The table's parts follow from these lengths: the ROB's, then the
	// decode buffer's, then the committed stores'.
	table, idx := s.liveInstrs()
	w.Section(ckpt.SecInstrs)
	w.Len(len(s.pendingDecode()))
	w.Len(len(s.lsu.committed))
	for _, si := range table {
		encodeInstr(w, si)
	}

	w.Section(ckpt.SecWindows)
	var entries []*SimInstr
	for _, win := range s.windows {
		entries = s.windowEntries(win, entries[:0])
		w.Len(len(entries))
		for _, si := range entries {
			instrRef(w, idx, si)
		}
	}

	w.Section(ckpt.SecFUs)
	for _, fu := range s.fus {
		w.Bool(fu.hasAccept)
		w.U64(fu.lastAccept)
		w.Len(len(fu.inflight))
		for _, op := range fu.inflight {
			instrRef(w, idx, op.si)
			w.U64(op.doneAt)
		}
	}

	w.Section(ckpt.SecLSU)
	for _, q := range [][]*SimInstr{s.lsu.loads, s.lsu.stores} {
		w.Len(len(q))
		for _, si := range q {
			instrRef(w, idx, si)
		}
	}

	w.Section(ckpt.SecFetch)
	w.Int(s.fetch.pc)
	w.U64(s.fetch.stalledUntil)
	instrRef(w, idx, s.fetch.waitBranch)

	s.rf.EncodeState(w)
	s.pred.EncodeState(w)
	s.l1.EncodeState(w)
	s.mem.EncodeState(w, s.prog.image)

	w.Section(ckpt.SecLog)
	w.Len(len(s.log))
	for _, e := range s.log {
		w.U64(e.Cycle)
		w.String(e.Msg)
	}
}

// checkInstrs checks what the instruction records claim against where
// the decoder placed them: committed stores, ROB and decode buffer run in
// program order, and a committed store holds no rename reference. Then it
// hands the ROB's destinations and source references to the rename file,
// which checks them and counts its references from them.
func (s *Simulation) checkInstrs(r *ckpt.Reader, table []*SimInstr) {
	if r.Err() != nil {
		return
	}
	count, renamed := s.rob.count, len(table)-len(s.lsu.committed)
	var last uint64
	for _, si := range slices.Concat(table[renamed:], table[:renamed]) {
		if si.ID <= last || si.ID > s.nextID {
			r.Corrupt("instruction %d out of program order", si.ID)
			return
		}
		last = si.ID
	}
	for _, si := range s.lsu.committed {
		if !si.IsStore() || si.holdsRefs() {
			r.Corrupt("committed instruction %d is not a store or holds a rename reference", si.ID)
			return
		}
	}
	var dests []rename.Dest
	var srcs []int
	for _, si := range table[:count] {
		if si.hasDest {
			dests = append(dests, rename.Dest{Tag: si.destTag, Class: si.destClass, Index: si.destReg,
				Done: s.rob.entries[si.robIndex].done})
		}
		for j := 0; j < int(si.nsrc); j++ {
			if src := &si.srcs[j]; !src.captured && src.tag != rename.NoTag {
				srcs = append(srcs, int(src.tag))
			}
		}
	}
	s.rf.CountHolders(r, dests, srcs, s.halted && s.exception != nil)
}

// DecodeState restores an encoded simulation state onto s, which must be
// freshly built from the same configuration and Program the
// checkpoint was taken from (the sim facade resolves them from the
// checkpoint header). On any decode error the reader's error is set and
// s must be discarded.
func (s *Simulation) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecCore)
	s.nextID = r.U64()
	s.halted = r.Bool()
	s.haltReason = r.String(1 << 16)
	s.exception = r.Exception()
	s.VerboseLog = r.Bool()
	s.ledger.DecodeState(r)

	r.Section(ckpt.SecROB)
	rob := s.rob
	head := r.Int()
	count := r.Len(rob.Cap())
	if r.Err() == nil && (head < 0 || head >= rob.Cap()) {
		r.Corrupt("ROB head %d outside capacity %d", head, rob.Cap())
	}
	if r.Err() != nil {
		return
	}
	rob.head, rob.count, rob.tail = head, count, (head+count)%rob.Cap()
	for i := 0; i < count; i++ {
		rob.entries[(head+i)%rob.Cap()].done = r.Bool()
	}

	// Every live instruction is in exactly one of the ROB, the decode
	// buffer and the committed-store queue, in table order.
	r.Section(ckpt.SecInstrs)
	ndec := r.Len(s.decodeCap)
	nc := r.Len(1 << 20)
	if r.Err() != nil {
		return
	}
	table := make([]*SimInstr, 0, count+ndec+nc)
	for i := 0; i < count+ndec+nc && r.Err() == nil; i++ {
		table = append(table, s.decodeInstr(r, i < count || i >= count+ndec))
	}
	if r.Err() != nil {
		return
	}
	for i, si := range table[:count] {
		si.robIndex = (head + i) % rob.Cap()
		rob.entries[si.robIndex].instr = si
	}
	s.decodeBuf = append(s.decodeBuf[:0], table[count:count+ndec]...)
	s.decodeHead = 0
	s.lsu.committed = append(s.lsu.committed[:0], table[count+ndec:]...)

	// Candidates are not encoded: every restored entry starts as one,
	// which is always safe (docs/checkpoint.md).
	r.Section(ckpt.SecWindows)
	for _, win := range s.windows {
		nw := r.Len(win.capacity)
		last := -1 // ROB position of the previous entry: oldest first
		for i := 0; i < nw && r.Err() == nil; i++ {
			if si := s.readLive(r, table); si != nil {
				pos := s.rob.position(si.robIndex)
				if pos <= last || s.iq.slot[si.robIndex].id != 0 || si.Static.Desc.Unit != win.class {
					r.Corrupt("issue-window entry %d out of order, listed twice or of another unit", si.ID)
					return
				}
				last = pos
				s.insertWindow(win, si)
			}
		}
	}

	r.Section(ckpt.SecFUs)
	held := make([]bool, s.rob.Cap()) // by ROB slot: executing or buffered
	for _, fu := range s.fus {
		fu.hasAccept = r.Bool()
		fu.lastAccept = r.U64()
		ni := r.Len(count)
		for i := 0; i < ni && r.Err() == nil; i++ {
			si := s.readLive(r, table)
			doneAt := r.U64()
			if si != nil {
				if held[si.robIndex] || s.iq.slot[si.robIndex].id != 0 || s.rob.entries[si.robIndex].done || si.Static.Desc.Unit != fu.class {
					r.Corrupt("instruction %d executes twice, while waiting to issue, after completing or on another unit", si.ID)
					return
				}
				held[si.robIndex] = true
				fu.inflight = append(fu.inflight, inflightOp{si: si, doneAt: doneAt})
				fu.minDone = min(fu.minDone, doneAt)
			}
		}
	}

	r.Section(ckpt.SecLSU)
	l := s.lsu
	clear(held)
	for _, q := range []struct {
		buf   *[]*SimInstr
		cap   int
		store bool
	}{{&l.loads, l.loadCap, false}, {&l.stores, l.storeCap, true}} {
		nq := r.Len(q.cap)
		var last uint64 // program order
		for i := 0; i < nq && r.Err() == nil; i++ {
			if si := s.readLive(r, table); si != nil {
				if si.ID <= last || held[si.robIndex] || si.IsStore() != q.store || !q.store && !si.IsLoad() {
					r.Corrupt("memory buffer entry %d out of order, listed twice or of the wrong kind", si.ID)
					return
				}
				last, held[si.robIndex] = si.ID, true
				*q.buf = append(*q.buf, si)
			}
		}
	}

	r.Section(ckpt.SecFetch)
	s.fetch.pc = r.Int()
	s.fetch.stalledUntil = r.U64()
	s.fetch.waitBranch = readRef(r, table)
	if wb := s.fetch.waitBranch; wb != nil && (!wb.IsBranch() || !wb.predStall) {
		r.Corrupt("fetch waits on instruction %d, which is not a parked jump", wb.ID)
		return
	}

	s.rf.DecodeState(r)
	s.checkInstrs(r, table)
	s.pred.DecodeState(r)
	s.l1.DecodeState(r)
	s.mem.DecodeState(r)

	r.Section(ckpt.SecLog)
	nlog := r.Len(logBound)
	s.log = s.log[:0]
	for i := 0; i < nlog && r.Err() == nil; i++ {
		e := LogEntry{Cycle: r.U64(), Msg: r.String(1 << 16)}
		s.log = append(s.log, e)
	}
}
