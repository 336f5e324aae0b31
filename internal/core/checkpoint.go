package core

import (
	"riscvsim/internal/ckpt"
	"riscvsim/internal/isa"
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

// readAt reads a reference that must be table[want]: every live
// instruction sits in exactly one of the ROB, the decode buffer and the
// committed-store queue, in table order.
func readAt(r *ckpt.Reader, table []*SimInstr, want int) *SimInstr {
	i := r.Int()
	if r.Err() == nil && (i != want || want >= len(table)) {
		r.Corrupt("reference %d where the instruction table places entry %d of %d", i, want, len(table))
	}
	if r.Err() != nil {
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
// referenced by its code index (PC); srcs rename references are tag
// indices into the rename file, and each source's name, class and register
// come from the rename plan rp.
func encodeInstr(w *ckpt.Writer, si *SimInstr, rp *renamePlan) {
	w.U64(si.ID)
	w.Int(si.PC)
	w.Byte(byte(si.Phase))
	w.U64(si.FetchedAt)
	w.U64(si.DecodedAt)
	w.U64(si.IssuedAt)
	w.U64(si.ExecutedAt)
	w.U64(si.MemoryAt)
	w.U64(si.CommittedAt)
	w.Len(int(si.nsrc))
	for i := 0; i < int(si.nsrc); i++ {
		src, rs := &si.srcs[i], &rp.srcs[i]
		w.String(rs.name)
		w.Byte(byte(rs.class))
		w.Int(int(rs.reg))
		w.Int(int(src.tag))
		// A tag without a value at rename read as zero.
		w.Value(src.valueIf(src.valid))
		w.Bool(src.valid)
		w.Bool(src.captured)
		w.Value(src.valueIf(src.captured))
	}
	w.Bool(si.hasDest)
	if si.hasDest {
		w.Byte(byte(si.destClass))
		w.Int(si.destReg)
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
	w.Bool(si.Squashed)
}

// decodeInstr reads one dynamic instruction, resolving its static
// instruction from the program.
func (s *Simulation) decodeInstr(r *ckpt.Reader) *SimInstr {
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
	nsrc := r.Len(maxSrcOperands)
	for i := 0; i < nsrc && r.Err() == nil; i++ {
		name, class, reg := r.String(64), isa.RegClass(r.Byte()), r.Int()
		tag, atRename, valid := r.Int(), r.Value(), r.Bool()
		captured, value := r.Bool(), r.Value()
		if r.Err() != nil {
			break
		}
		if rs := &rp.srcs[i]; i >= int(rp.nsrc) || rs.name != name || rs.class != class || int(rs.reg) != reg {
			r.Corrupt("source %d (%s) does not match instruction %d", i, name, si.PC)
			break
		}
		if tag != rename.NoTag && (tag < 0 || tag >= s.rf.Size()) {
			r.Corrupt("source rename tag %d outside file of %d", tag, s.rf.Size())
			break
		}
		if !captured {
			value = atRename
		}
		si.srcs[i] = srcOperand{tag: int32(tag), valid: valid, captured: captured, value: value}
		si.nsrc++
	}
	si.hasDest = r.Bool()
	if si.hasDest {
		si.destClass = isa.RegClass(r.Byte())
		si.destReg = r.Int()
		si.destTag = r.Int()
		si.destPrev = r.Int()
		if r.Err() == nil && (si.destTag < 0 || si.destTag >= s.rf.Size() ||
			si.destPrev != rename.NoTag && (si.destPrev < 0 || si.destPrev >= s.rf.Size())) {
			r.Corrupt("destination rename tags %d / %d outside file of %d", si.destTag, si.destPrev, s.rf.Size())
			return si
		}
	}
	if r.Err() == nil && si.hasDest && (!rp.hasDest || si.destClass != rp.destClass || si.destReg != int(rp.destReg)) {
		r.Corrupt("destination %s%d does not match instruction %d", si.destClass, si.destReg, si.PC)
		return si
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
	si.Squashed = r.Bool()
	return si
}

// EncodeState serializes the complete simulation state (everything below
// the configuration/program level, which the caller's header carries).
func (s *Simulation) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecCore)
	w.U64(s.cycle)
	w.U64(s.nextID)
	w.Bool(s.halted)
	w.String(s.haltReason)
	w.Exception(s.exception)
	w.Bool(s.VerboseLog)
	w.U64(s.committedCount)
	w.U64(s.squashedCount)
	w.U64(s.flops)
	w.U64(s.robFlushes)
	w.U64(s.decodeStalls)
	w.U64(s.commitStalls)
	w.U64(s.renameStalls)
	w.U64(s.robOccSum)
	// Dynamic mix: non-zero counters in ascending key order — the same
	// bytes the historical map encoding produced (a map entry only ever
	// existed once its counter was incremented).
	nmix := 0
	for _, n := range s.dynMix {
		if n != 0 {
			nmix++
		}
	}
	w.Len(nmix)
	for k, n := range s.dynMix {
		if n != 0 {
			w.Int(k)
			w.U64(n)
		}
	}

	table, idx := s.liveInstrs()
	w.Section(ckpt.SecInstrs)
	w.Len(len(table))
	for _, si := range table {
		encodeInstr(w, si, &s.prog.rplans[si.PC])
	}

	w.Section(ckpt.SecROB)
	w.Int(s.rob.head)
	w.Int(s.rob.count)
	s.rob.Walk(func(si *SimInstr, done bool) {
		instrRef(w, idx, si)
		w.Bool(done)
	})

	// Decode buffer.
	pending := s.pendingDecode()
	w.Len(len(pending))
	for _, si := range pending {
		instrRef(w, idx, si)
	}

	w.Section(ckpt.SecWindows)
	var entries []*SimInstr
	for _, win := range s.windows {
		occ, full := win.settled(s.counted)
		w.U64(occ)
		w.U64(full)
		entries = s.windowEntries(win, entries[:0])
		w.Len(len(entries))
		for _, si := range entries {
			instrRef(w, idx, si)
		}
	}

	w.Section(ckpt.SecFUs)
	w.Int(len(s.fus))
	for _, fu := range s.fus {
		w.Bool(fu.hasAccept)
		w.U64(fu.lastAccept)
		w.U64(fu.settled(s.counted).BusyCycles)
		w.U64(fu.count.ExecCount)
		w.U64(fu.totalCycles)
		w.Len(len(fu.inflight))
		for _, op := range fu.inflight {
			instrRef(w, idx, op.si)
			w.U64(op.doneAt)
		}
	}

	w.Section(ckpt.SecLSU)
	l := s.lsu
	for _, q := range [][]*SimInstr{l.loads, l.stores, l.committed} {
		w.Len(len(q))
		for _, si := range q {
			instrRef(w, idx, si)
		}
	}
	w.U64(l.count.Loads)
	w.U64(l.count.Stores)
	w.U64(l.count.Forwards)
	w.U64(l.count.StallsUnknown)
	w.U64(l.count.StallsPartial)
	w.U64(l.count.BusBusyCycles)
	w.U64(l.count.LoadBufStalls)
	w.U64(l.count.StoreBufStalls)
	w.U64(l.drainedStores)

	w.Section(ckpt.SecFetch)
	w.Int(s.fetch.pc)
	w.U64(s.fetch.stalledUntil)
	instrRef(w, idx, s.fetch.waitBranch)
	w.U64(s.fetch.fetched)
	w.U64(s.fetch.stallCycles)

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

	w.Section(ckpt.SecDebug)
	bps := s.Breakpoints() // sorted
	w.Len(len(bps))
	for _, pc := range bps {
		w.Int(pc)
	}
	w.Len(len(s.watches))
	for _, wr := range s.watches {
		w.Int(wr.addr)
		w.Int(wr.size)
	}
	w.Bool(s.paused)
	w.String(s.pauseReason)
	w.U64(s.bpSkipID)
}

// checkInstrs checks what the instruction records claim against where
// the decoder placed them: the ROB (the first count entries) and the
// committed stores (the entries after the ndec in the decode buffer) are
// renamed and the decode buffer is not; none is squashed; and committed
// stores, ROB and decode buffer run in program order. Then it hands the
// ROB's destinations and source references to the rename file's own
// check.
func (s *Simulation) checkInstrs(r *ckpt.Reader, table []*SimInstr, count, ndec int) {
	if r.Err() != nil {
		return
	}
	var last uint64
	for _, part := range [][]*SimInstr{table[count+ndec:], table[:count+ndec]} {
		for _, si := range part {
			if si.ID <= last || si.ID > s.nextID {
				r.Corrupt("instruction %d out of program order", si.ID)
				return
			}
			last = si.ID
		}
	}
	var dests []rename.Dest
	var srcs []int
	for i, si := range table {
		rp := &s.prog.rplans[si.PC]
		rob, committed := i < count, i >= count+ndec
		placed := si.nsrc == 0 && !si.hasDest // not renamed yet
		if rob || committed {
			placed = si.nsrc == rp.nsrc && si.hasDest == rp.hasDest
		}
		if si.Squashed || !placed || committed && (!si.IsStore() || si.holdsRefs()) {
			r.Corrupt("instruction %d squashed, or renamed where it is not", si.ID)
			return
		}
		if !rob {
			continue
		}
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
	s.rf.CheckHolders(r, dests, srcs, s.halted && s.exception != nil)
}

// DecodeState restores an encoded simulation state onto s, which must be
// freshly built from the same configuration and Program the
// checkpoint was taken from (the sim facade resolves them from the
// checkpoint header). On any decode error the reader's error is set and
// s must be discarded.
func (s *Simulation) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecCore)
	s.cycle = r.U64()
	s.nextID = r.U64()
	s.halted = r.Bool()
	s.haltReason = r.String(1 << 16)
	s.exception = r.Exception()
	s.VerboseLog = r.Bool()
	s.committedCount = r.U64()
	s.squashedCount = r.U64()
	s.flops = r.U64()
	s.robFlushes = r.U64()
	s.decodeStalls = r.U64()
	s.commitStalls = r.U64()
	s.renameStalls = r.U64()
	s.robOccSum = r.U64()
	nmix := r.Len(256)
	s.dynMix = [isa.NumInstrTypes]uint64{}
	for i := 0; i < nmix && r.Err() == nil; i++ {
		k := r.Int()
		n := r.U64()
		if r.Err() != nil {
			break
		}
		if k < 0 || k >= isa.NumInstrTypes {
			r.Corrupt("dynamic-mix instruction type %d out of range", k)
			return
		}
		s.dynMix[k] = n
	}

	r.Section(ckpt.SecInstrs)
	n := r.Len(1 << 20)
	table := make([]*SimInstr, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		table = append(table, s.decodeInstr(r))
	}
	if r.Err() != nil {
		return
	}

	r.Section(ckpt.SecROB)
	head := r.Int()
	count := r.Int()
	if r.Err() != nil {
		return
	}
	if head < 0 || head >= s.rob.Cap() || count < 0 || count > s.rob.Cap() || count > len(table) {
		r.Corrupt("ROB head %d / count %d outside capacity %d or table of %d", head, count, s.rob.Cap(), len(table))
		return
	}
	s.rob.head = head
	s.rob.count = count
	s.rob.tail = (head + count) % s.rob.Cap()
	for i := range s.rob.entries {
		s.rob.entries[i] = robEntry{}
	}
	for i := 0; i < count && r.Err() == nil; i++ {
		si := readAt(r, table, i)
		done := r.Bool()
		if r.Err() != nil {
			return
		}
		pos := (head + i) % s.rob.Cap()
		si.robIndex = pos
		s.rob.entries[pos] = robEntry{instr: si, done: done}
	}

	ndec := r.Len(s.decodeCap)
	s.decodeBuf = s.decodeBuf[:0]
	s.decodeHead = 0
	for i := 0; i < ndec && r.Err() == nil; i++ {
		if si := readAt(r, table, count+i); si != nil {
			s.decodeBuf = append(s.decodeBuf, si)
		}
	}

	// Candidates are not encoded: every restored entry starts as one,
	// which is always safe (docs/checkpoint.md).
	r.Section(ckpt.SecWindows)
	for _, win := range s.windows {
		win.occupancySum = r.U64()
		win.fullStalls = r.U64()
		win.bookedAt = s.counted
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
	if nf := r.Int(); r.Err() == nil && nf != len(s.fus) {
		r.Corrupt("%d functional units, machine has %d", nf, len(s.fus))
		return
	}
	for _, fu := range s.fus {
		fu.hasAccept = r.Bool()
		fu.lastAccept = r.U64()
		fu.count.BusyCycles = r.U64()
		fu.count.ExecCount = r.U64()
		fu.totalCycles = r.U64()
		fu.bookedAt = s.counted
		ni := r.Len(len(table))
		fu.inflight = fu.inflight[:0]
		fu.minDone = noneDue
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
		*q.buf = (*q.buf)[:0]
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
	nc := r.Len(len(table))
	if r.Err() == nil && count+ndec+nc != len(table) {
		r.Corrupt("%d committed stores leave the instruction table of %d uncovered", nc, len(table))
		return
	}
	l.committed = l.committed[:0]
	for i := 0; i < nc && r.Err() == nil; i++ {
		if si := readAt(r, table, count+ndec+i); si != nil {
			l.committed = append(l.committed, si)
		}
	}
	l.count.Loads = r.U64()
	l.count.Stores = r.U64()
	l.count.Forwards = r.U64()
	l.count.StallsUnknown = r.U64()
	l.count.StallsPartial = r.U64()
	l.count.BusBusyCycles = r.U64()
	l.count.LoadBufStalls = r.U64()
	l.count.StoreBufStalls = r.U64()
	l.drainedStores = r.U64()

	r.Section(ckpt.SecFetch)
	s.fetch.pc = r.Int()
	s.fetch.stalledUntil = r.U64()
	s.fetch.waitBranch = readRef(r, table)
	s.fetch.fetched = r.U64()
	s.fetch.stallCycles = r.U64()
	if wb := s.fetch.waitBranch; wb != nil && (!wb.IsBranch() || !wb.predStall) {
		r.Corrupt("fetch waits on instruction %d, which is not a parked jump", wb.ID)
		return
	}

	s.rf.DecodeState(r)
	s.checkInstrs(r, table, count, ndec)
	s.pred.DecodeState(r)
	s.l1.DecodeState(r)
	s.mem.DecodeState(r)

	r.Section(ckpt.SecLog)
	nlog := r.Len(s.logBound)
	s.log = s.log[:0]
	for i := 0; i < nlog && r.Err() == nil; i++ {
		e := LogEntry{Cycle: r.U64(), Msg: r.String(1 << 16)}
		s.log = append(s.log, e)
	}

	r.Section(ckpt.SecDebug)
	nbp := r.Len(len(s.prog.instrs))
	s.breakpoints = nil
	for i := 0; i < nbp && r.Err() == nil; i++ {
		pc := r.Int()
		if r.Err() == nil {
			if s.breakpoints == nil {
				s.breakpoints = make(map[int]bool, nbp)
			}
			s.breakpoints[pc] = true
		}
	}
	nwatch := r.Len(1 << 16)
	s.watches = s.watches[:0]
	for i := 0; i < nwatch && r.Err() == nil; i++ {
		s.watches = append(s.watches, watchRange{addr: r.Int(), size: r.Int()})
	}
	s.paused = r.Bool()
	s.pauseReason = r.String(1 << 16)
	s.bpSkipID = r.U64()
}
