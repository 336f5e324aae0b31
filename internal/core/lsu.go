package core

import (
	"fmt"

	"riscvsim/internal/cache"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
	"riscvsim/internal/stats"
	"riscvsim/internal/trace"
)

// LSU combines the load buffer, the store buffer and the memory unit that
// talks to the cache (paper §II-A: "load/store buffers, and a memory unit
// connected to the cache").
//
// Discipline: loads execute speculatively out of order but never bypass an
// older store with an unknown address; an older store to the same bytes
// forwards its data when it fully covers the load, otherwise the load
// waits until that store has drained to the cache. Stores write the cache
// only after they commit.
type LSU struct {
	loadCap  int
	storeCap int

	loads  []*SimInstr // program order (by ID)
	stores []*SimInstr // in-flight, not yet committed, program order

	// committed stores wait here for the memory unit to drain them.
	committed []*SimInstr

	// port is the L1, which passes every access to main memory when it
	// is off.
	port *cache.Cache

	// onTrace, when set by Simulation.SetTracer, reports load completions
	// (the memory pipeline's writeback transitions) to the pipeline
	// tracer. nil when tracing is off — same nil-guard discipline as the
	// core's emission sites.
	onTrace func(now uint64, si *SimInstr, st trace.Stage, detail string)

	// onRecycle, when set by the owning simulation, reclaims a committed
	// store's instruction instance once it has drained to the cache — the
	// last point anything references it.
	onRecycle func(si *SimInstr)

	// completedScratch is the reusable Step result buffer, only valid
	// within one call.
	completedScratch []*SimInstr

	// stats is the LSU's slot of the simulation's statistics ledger.
	stats *stats.LSUStat
}

// NewLSU builds the load/store subsystem over the L1 that counts into st.
func NewLSU(loadCap, storeCap int, port *cache.Cache, st *stats.LSUStat) *LSU {
	return &LSU{loadCap: loadCap, storeCap: storeCap, port: port, stats: st}
}

// CanAccept reports whether a new memory instruction of the given kind has
// buffer space (checked at rename/dispatch).
func (l *LSU) CanAccept(isStore bool) bool {
	if isStore {
		if len(l.stores) >= l.storeCap {
			l.stats.StoreBufStalls++
			return false
		}
		return true
	}
	if len(l.loads) >= l.loadCap {
		l.stats.LoadBufStalls++
		return false
	}
	return true
}

// Add registers a dispatched memory instruction in program order.
func (l *LSU) Add(si *SimInstr) {
	if si.IsStore() {
		l.stores = append(l.stores, si)
		l.stats.Stores++
	} else {
		l.loads = append(l.loads, si)
		l.stats.Loads++
	}
}

// OnCommitStore moves a committed store to the drain queue; the memory
// unit writes it to the cache asynchronously.
func (l *LSU) OnCommitStore(si *SimInstr) {
	for i, st := range l.stores {
		if st == si {
			l.stores = append(l.stores[:i], l.stores[i+1:]...)
			break
		}
	}
	l.committed = append(l.committed, si)
}

// olderStoreConflict classifies the oldest problematic store for a load:
// returns (blocked, forwardable store).
func (l *LSU) olderStoreConflict(ld *SimInstr) (bool, *SimInstr) {
	check := func(st *SimInstr) (bool, *SimInstr, bool) {
		if st.ID >= ld.ID {
			return false, nil, false
		}
		if !st.addrReady {
			l.stats.StallsUnknown++
			return true, nil, true
		}
		stW := st.Static.Desc.MemWidth
		ldW := ld.Static.Desc.MemWidth
		if st.effAddr < ld.effAddr+ldW && ld.effAddr < st.effAddr+stW {
			// Overlap. Full coverage forwards; partial blocks.
			if st.effAddr <= ld.effAddr && st.effAddr+stW >= ld.effAddr+ldW {
				return false, st, false
			}
			l.stats.StallsPartial++
			return true, nil, true
		}
		return false, nil, false
	}
	var forward *SimInstr
	// Committed stores first (older), then in-flight, youngest match wins.
	for _, st := range l.committed {
		blocked, fwd, stop := check(st)
		if blocked {
			return true, nil
		}
		if fwd != nil {
			forward = fwd
		}
		_ = stop
	}
	for _, st := range l.stores {
		blocked, fwd, _ := check(st)
		if blocked {
			return true, nil
		}
		if fwd != nil {
			forward = fwd
		}
	}
	return false, forward
}

// Step advances the memory unit by one cycle: drains one committed store
// to the cache and issues/completes loads. Completed loads are returned so
// the core can write back their values. A fault on a store that already
// committed is returned as a machine-stopping exception.
func (l *LSU) Step(now uint64) (completed []*SimInstr, storeExc *fault.Exception) {
	// Drain one committed store per cycle through the memory port.
	if len(l.committed) > 0 {
		st := l.committed[0]
		tx := memory.Transaction{
			Addr: st.effAddr, Size: st.Static.Desc.MemWidth,
			IsStore: true, Data: st.storeData,
		}
		if _, exc := l.port.Access(&tx, now); exc != nil {
			// The store already committed; its fault stops the machine.
			exc.Cycle = now
			exc.PC = st.PC
			storeExc = exc
		}
		// Shift the queue in place so the backing array is reused.
		n := copy(l.committed, l.committed[1:])
		l.committed[n] = nil
		l.committed = l.committed[:n]
		l.stats.BusBusyCycles++
		// Nothing references a drained store anymore.
		if l.onRecycle != nil {
			l.onRecycle(st)
		}
	}

	// Issue loads: oldest first, one cache access per cycle; forwarded
	// loads do not consume the port.
	portFree := true
	for _, ld := range l.loads {
		if !ld.addrReady || ld.memIssued || ld.Squashed {
			continue
		}
		blocked, fwd := l.olderStoreConflict(ld)
		if blocked {
			// Conservative: younger loads must not bypass the
			// disambiguation stall either.
			break
		}
		if fwd != nil {
			// Store-to-load forwarding.
			shift := uint((ld.effAddr - fwd.effAddr) * 8)
			raw := fwd.storeData >> shift
			ld.memDoneAt = now + 1
			ld.memIssued = true
			ld.storeData = raw // reuse field as the forwarded payload
			l.stats.Forwards++
			continue
		}
		if !portFree {
			continue
		}
		tx := memory.Transaction{Addr: ld.effAddr, Size: ld.Static.Desc.MemWidth}
		finish, exc := l.port.Access(&tx, now)
		if exc != nil {
			exc.Cycle = now
			exc.PC = ld.PC
			ld.Exc = exc
			ld.memDoneAt = now + 1
			ld.memIssued = true
			continue
		}
		ld.storeData = tx.Data
		ld.memDoneAt = finish
		ld.memIssued = true
		portFree = false
		l.stats.BusBusyCycles++
	}

	// Complete loads whose data has arrived. The completed slice is the
	// reusable scratch, valid until the next Step.
	completed = l.completedScratch[:0]
	kept := 0
	for i, ld := range l.loads {
		if ld.memIssued && now >= ld.memDoneAt && !ld.Squashed {
			completed = append(completed, ld)
			if l.onTrace != nil {
				detail := fmt.Sprintf("addr=%d", ld.effAddr)
				if ld.Exc.Occurred() {
					detail = "exception: " + ld.Exc.Error()
				}
				l.onTrace(now, ld, trace.StageWriteback, detail)
			}
			continue
		}
		if kept != i { // only loads behind a completed one move
			l.loads[kept] = ld
		}
		kept++
	}
	clear(l.loads[kept:])
	l.loads = l.loads[:kept]
	l.completedScratch = completed
	return completed, storeExc
}

// LoadValue converts a raw memory payload into the typed register value a
// load writes back.
func LoadValue(desc *isa.Desc, raw uint64) expr.Value {
	dst := desc.DestArg()
	switch {
	case dst != nil && dst.Kind == isa.ArgRegFloat:
		if desc.MemWidth == 8 {
			return expr.FromBits(raw, expr.Double)
		}
		return expr.FromBits(raw&0xFFFFFFFF, expr.Float)
	case desc.MemSigned:
		switch desc.MemWidth {
		case 1:
			return expr.NewInt(int32(int8(raw)))
		case 2:
			return expr.NewInt(int32(int16(raw)))
		default:
			return expr.NewInt(int32(uint32(raw)))
		}
	default:
		switch desc.MemWidth {
		case 1:
			return expr.NewInt(int32(uint32(uint8(raw))))
		case 2:
			return expr.NewInt(int32(uint32(uint16(raw))))
		default:
			return expr.NewInt(int32(uint32(raw)))
		}
	}
}

// RemoveSquashed drops wrong-path entries from both buffers.
func (l *LSU) RemoveSquashed() {
	loads := l.loads[:0]
	for _, ld := range l.loads {
		if !ld.Squashed {
			loads = append(loads, ld)
		}
	}
	for i := len(loads); i < len(l.loads); i++ {
		l.loads[i] = nil
	}
	l.loads = loads
	stores := l.stores[:0]
	for _, st := range l.stores {
		if !st.Squashed {
			stores = append(stores, st)
		}
	}
	for i := len(stores); i < len(l.stores); i++ {
		l.stores[i] = nil
	}
	l.stores = stores
}

// DrainAll forces every committed store through the memory port at once.
// Halt paths call it: a committed store is architecturally performed, so
// it must reach memory before the final cache flush even though the
// one-store-per-cycle drain schedule never got to it — otherwise the
// final memory image silently loses it. Timing is over at this point, so
// the port occupancy counter is not advanced. Faults cannot occur here:
// the address was bounds-checked at execute, before the store could
// commit.
func (l *LSU) DrainAll(now uint64) {
	for _, st := range l.committed {
		tx := memory.Transaction{
			Addr: st.effAddr, Size: st.Static.Desc.MemWidth,
			IsStore: true, Data: st.storeData,
		}
		l.port.Access(&tx, now)
		if l.onRecycle != nil {
			l.onRecycle(st)
		}
	}
	for i := range l.committed {
		l.committed[i] = nil
	}
	l.committed = l.committed[:0]
}

// Drained reports whether no committed store is waiting for memory.
func (l *LSU) Drained() bool { return len(l.committed) == 0 }
