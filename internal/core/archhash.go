package core

import (
	"encoding/binary"
	"hash/fnv"

	"riscvsim/internal/isa"
)

// ArchHash digests the architectural machine state: every architectural
// register, all of data memory, the committed-instruction bookkeeping and
// the halt story. It deliberately excludes timing state — cycle counts,
// stall counters, cache and predictor contents — and the fetch PC (after
// an ecall halt the detailed front end has speculatively run ahead of the
// commit point), so a fast-forward run and a detailed run of the same
// program produce the same digest exactly when they agree architecturally.
// The fast-forward equivalence gate (TestFastForwardEquivalence) and the
// co-simulation fuzzer compare runs across engine modes with it; StateHash (sim
// package) remains the full cycle-accurate digest within one mode.
func (s *Simulation) ArchHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < isa.NumRegs; i++ {
		w64(s.rf.ArchValue(isa.RegInt, i).Bits())
	}
	for i := 0; i < isa.NumRegs; i++ {
		w64(s.rf.ArchValue(isa.RegFloat, i).Bits())
	}
	s.mem.WriteTo(h)
	w64(s.ledger.Committed)
	w64(s.ledger.Flops)
	for _, n := range s.ledger.DynamicMix {
		w64(n)
	}
	if s.halted {
		w64(1)
		h.Write([]byte(s.haltReason))
	} else {
		w64(0)
	}
	if s.exception != nil {
		h.Write([]byte(s.exception.Error()))
	}
	return h.Sum64()
}
