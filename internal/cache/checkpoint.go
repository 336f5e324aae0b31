package cache

import "riscvsim/internal/ckpt"

// EncodeState writes the cache's dynamic state: the replacement clocks,
// the deterministic RNG and every valid line with its buffered data
// (dirty write-back lines hold data newer than memory, so they are part
// of the machine state, not a derivable optimization).
func (c *Cache) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecCache)
	w.Bool(c.cfg.Enabled)
	w.U64(c.tick)
	w.U64(c.rng)
	if !c.cfg.Enabled {
		return
	}
	w.Int(c.numSets)
	w.Int(c.cfg.Associativity)
	for i := range c.lines {
		ln := &c.lines[i]
		w.Bool(ln.valid)
		if !ln.valid {
			continue
		}
		w.Bool(ln.dirty)
		w.Int(ln.tag)
		w.U64(ln.lastUse)
		w.U64(ln.loadedAt)
		w.Bytes(c.lineData(i/c.cfg.Associativity, i%c.cfg.Associativity))
	}
}

// DecodeState applies an encoded cache state onto c, which must have been
// built from the same configuration (same geometry).
func (c *Cache) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecCache)
	enabled := r.Bool()
	if r.Err() == nil && enabled != c.cfg.Enabled {
		r.Corrupt("cache enabled=%v, machine has %v", enabled, c.cfg.Enabled)
		return
	}
	c.tick = r.U64()
	c.rng = r.U64()
	if !enabled || r.Err() != nil {
		return
	}
	if sets := r.Int(); r.Err() == nil && sets != c.numSets {
		r.Corrupt("cache has %d sets, machine has %d", sets, c.numSets)
		return
	}
	if ways := r.Int(); r.Err() == nil && ways != c.cfg.Associativity {
		r.Corrupt("cache has %d ways, machine has %d", ways, c.cfg.Associativity)
		return
	}
	c.views, c.indexed, c.lent = nil, false, false // every line is about to change
	for i := range c.lines {
		ln := &c.lines[i]
		ln.valid = r.Bool()
		if !ln.valid {
			*ln = line{}
			continue
		}
		ln.dirty = r.Bool()
		ln.tag = r.Int()
		ln.lastUse = r.U64()
		ln.loadedAt = r.U64()
		data := r.Bytes(c.cfg.LineSize)
		if r.Err() != nil {
			return
		}
		if len(data) != c.cfg.LineSize {
			r.Corrupt("cache line of %d bytes, want %d", len(data), c.cfg.LineSize)
			return
		}
		copy(c.lineData(i/c.cfg.Associativity, i%c.cfg.Associativity), data)
	}
}
