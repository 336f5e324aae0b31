package cache

import "riscvsim/internal/ckpt"

// EncodeState writes the cache's dynamic state: the replacement clocks,
// the deterministic RNG and every valid line with its buffered data
// (dirty write-back lines hold data newer than memory, so they are part
// of the machine state, not a derivable optimization). Whether the cache
// is enabled, its geometry and its line length are the configuration's,
// so none travels.
func (c *Cache) EncodeState(w *ckpt.Writer) {
	w.Section(ckpt.SecCache)
	w.U64(c.tick)
	w.U64(c.rng)
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
		w.Raw(c.lineData(i/c.cfg.Associativity, i%c.cfg.Associativity))
	}
}

// DecodeState applies an encoded cache state onto c, which must be
// freshly built from the same configuration.
func (c *Cache) DecodeState(r *ckpt.Reader) {
	r.Section(ckpt.SecCache)
	c.tick = r.U64()
	c.rng = r.U64()
	c.views, c.indexed, c.lent = nil, false, false // every line is about to change
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid = r.Bool(); !ln.valid {
			continue
		}
		ln.dirty = r.Bool()
		ln.tag = r.Int()
		ln.lastUse = r.U64()
		ln.loadedAt = r.U64()
		r.Raw(c.lineData(i/c.cfg.Associativity, i%c.cfg.Associativity))
	}
}
