package predictor

import "riscvsim/internal/ckpt"

// EncodeState writes the predictor's trained state: BTB entries, PHT
// counters and the active history register(s).
func (p *Predictor) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecPredictor)
	w.Int(len(p.btb))
	for i := range p.btb {
		e := &p.btb[i]
		w.Bool(e.valid)
		if e.valid {
			w.Int(e.pc)
			w.Int(e.target)
		}
	}
	w.Bytes(p.pht)
	w.U64(uint64(p.globalHist))
	w.Int(len(p.localHist))
	for _, h := range p.localHist {
		w.U64(uint64(h))
	}
}

// DecodeState applies an encoded predictor state onto p, which must have
// been built from the same configuration.
func (p *Predictor) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecPredictor)
	if n := r.Int(); r.Err() == nil && n != len(p.btb) {
		r.Corrupt("BTB of %d entries, machine has %d", n, len(p.btb))
		return
	}
	for i := range p.btb {
		e := &p.btb[i]
		e.valid = r.Bool()
		if e.valid {
			e.pc = r.Int()
			e.target = r.Int()
		} else {
			e.pc, e.target = 0, 0
		}
	}
	pht := r.Bytes(len(p.pht))
	if r.Err() != nil {
		return
	}
	if len(pht) != len(p.pht) {
		r.Corrupt("PHT of %d entries, machine has %d", len(pht), len(p.pht))
		return
	}
	copy(p.pht, pht)
	p.globalHist = uint32(r.U64())
	if n := r.Int(); r.Err() == nil && n != len(p.localHist) {
		r.Corrupt("local history of %d entries, machine has %d", n, len(p.localHist))
		return
	}
	for i := range p.localHist {
		p.localHist[i] = uint32(r.U64())
	}
}
