package predictor

import "riscvsim/internal/ckpt"

// EncodeState writes the predictor's trained state: BTB entries, PHT
// counters and the active history register(s). The tables' lengths are
// the configuration's, so none travels.
func (p *Predictor) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecPredictor)
	for i := range p.btb {
		e := &p.btb[i]
		w.Bool(e.valid)
		if e.valid {
			w.Int(e.pc)
			w.Int(e.target)
		}
	}
	w.Raw(p.pht)
	w.U64(uint64(p.globalHist))
	for _, h := range p.localHist {
		w.U64(uint64(h))
	}
}

// DecodeState applies an encoded predictor state onto p, which must be
// freshly built from the same configuration.
func (p *Predictor) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecPredictor)
	for i := range p.btb {
		if e := &p.btb[i]; r.Bool() {
			*e = btbEntry{valid: true, pc: r.Int(), target: r.Int()}
		}
	}
	r.Raw(p.pht)
	p.globalHist = p.readHistory(r)
	for i := range p.localHist {
		p.localHist[i] = p.readHistory(r)
	}
}

// readHistory reads a history register, which holds HistoryBits bits.
func (p *Predictor) readHistory(r *ckpt.Reader) uint32 {
	h := r.U64()
	if h > uint64(p.histMask) {
		r.Corrupt("branch history %#x wider than %d bits", h, p.cfg.HistoryBits)
		return 0
	}
	return uint32(h)
}
