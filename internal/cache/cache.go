// Package cache implements the simulator's L1 data cache, configurable in
// capacity, line size, associativity, replacement policy (LRU, FIFO or
// Random) and store behaviour (write-back or write-through), with separate
// access and line-replacement delays — the full option set of the paper's
// Cache settings tab (§II-C).
//
// The cache sits between the processor's memory-access unit and main
// memory and reaches memory only by transactions (memory.Main.Access):
// every line fill, writeback and write-through store is one that main
// memory times and counts, so the cache states no memory latency.
package cache

import (
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"

	"riscvsim/internal/fault"
	"riscvsim/internal/jsonenc"
	"riscvsim/internal/memory"
)

// ReplacementPolicy selects the victim line within a set.
type ReplacementPolicy int

// Replacement policies offered by the paper's settings window.
const (
	LRU ReplacementPolicy = iota
	FIFO
	Random
)

var policyNames = [...]string{"LRU", "FIFO", "Random"}

// String returns the display name of the policy.
func (p ReplacementPolicy) String() string {
	if uint(p) < uint(len(policyNames)) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// WritePolicy selects the store behaviour.
type WritePolicy int

// Store behaviours offered by the paper's settings window.
const (
	// WriteBack buffers stores in the cache (write-allocate) and writes
	// dirty lines to memory only on eviction or flush.
	WriteBack WritePolicy = iota
	// WriteThrough forwards every store to memory immediately
	// (no-write-allocate on miss).
	WriteThrough
)

var writePolicyNames = [...]string{"write-back", "write-through"}

// String returns the display name of the policy.
func (p WritePolicy) String() string {
	if uint(p) < uint(len(writePolicyNames)) {
		return writePolicyNames[p]
	}
	return fmt.Sprintf("writePolicy(%d)", int(p))
}

// Config holds the Cache tab parameters (paper §II-C).
type Config struct {
	// Enabled turns the L1 cache on; when false the processor talks to
	// memory directly.
	Enabled bool
	// Lines is the total number of cache lines.
	Lines int
	// LineSize is the line size in bytes (a power of two).
	LineSize int
	// Associativity is the number of ways per set; Lines must be a
	// multiple of it. 1 = direct-mapped; Lines = fully associative.
	Associativity int
	// Replacement selects the victim policy.
	Replacement ReplacementPolicy
	// Write selects write-back or write-through behaviour.
	Write WritePolicy
	// AccessDelay is the hit latency in cycles.
	AccessDelay int
	// ReplacementDelay is the extra latency for a line replacement.
	ReplacementDelay int
}

// DefaultConfig returns the cache configuration used by the preset
// architectures: 16 KiB, 4-way, 64 B lines, LRU write-back.
func DefaultConfig() Config {
	return Config{
		Enabled:          true,
		Lines:            256,
		LineSize:         64,
		Associativity:    4,
		Replacement:      LRU,
		Write:            WriteBack,
		AccessDelay:      1,
		ReplacementDelay: 10,
	}
}

// line is one cache line's bookkeeping; its data lives in its set's chunk
// (Cache.data). Write-back caches hold data newer than memory in dirty
// lines.
type line struct {
	valid    bool
	dirty    bool
	tag      int
	lastUse  uint64 // LRU timestamp
	loadedAt uint64 // FIFO timestamp
}

// Stats are the cache statistics the runtime-statistics window reports
// (paper §II-D: accesses, hit and miss ratios). The bytes the cache
// writes to memory are main memory's to count (memory.Stats).
type Stats struct {
	Accesses   uint64 `json:"accesses"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
}

// HitRate returns hits/accesses in [0,1].
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is the L1 cache.
type Cache struct {
	cfg     Config
	lines   []line // set-major: way w of set si is lines[si*Associativity+w]
	numSets int
	// data holds each set's line data, Associativity × LineSize bytes,
	// allocated on the set's first fill or decode: a machine pays for the
	// sets its program touches. Only valid lines are ever read.
	data    [][]byte
	backing *memory.Main
	tick    uint64 // monotonic use counter for LRU/FIFO ordering
	rng     uint64 // xorshift state for Random replacement (deterministic)
	// stats is the cache's slot of its simulation's statistics ledger.
	stats *Stats
	// views caches what Lines last reported: one entry per valid line, in
	// set-major order, each with its encoded fragment. Nil until the
	// first Lines call, so a machine nobody looks at carries none. An
	// entry is current while its enc is non-nil: whatever changes what a
	// valid line displays — a store, a refill, a flush — drops the entry
	// (dropView), and the next Lines rebuilds only those. A line that
	// turns valid has no entry yet: the fill clears indexed, and the next
	// Lines lays out the slice again, keeping the entries it had. A
	// restore discards every entry (DecodeState). Lines hands the slice
	// itself out and sets lent; from then on a drop continues on a copy,
	// so nothing a caller holds is written again.
	views   []LineView
	indexed bool
	lent    bool
}

// New builds a cache over the given backing memory that counts into st.
// The configuration must be valid (config.CPU.Validate checks it).
func New(cfg Config, backing *memory.Main, st *Stats) *Cache {
	c := &Cache{cfg: cfg, backing: backing, rng: 0x9E3779B97F4A7C15, stats: st}
	if cfg.Enabled {
		c.numSets = cfg.Lines / cfg.Associativity
		c.lines = make([]line, cfg.Lines)
		c.data = make([][]byte, c.numSets)
	}
	return c
}

// set returns the ways of set si.
func (c *Cache) set(si int) []line {
	a := c.cfg.Associativity
	return c.lines[si*a : (si+1)*a : (si+1)*a]
}

// lineData returns the data of way w in set si, allocating the set's chunk
// on first use.
func (c *Cache) lineData(si, w int) []byte {
	if c.data[si] == nil {
		c.data[si] = make([]byte, c.cfg.Associativity*c.cfg.LineSize)
	}
	ls := c.cfg.LineSize
	return c.data[si][w*ls : (w+1)*ls : (w+1)*ls]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// findWay returns the way holding tag in set si, or -1.
func (c *Cache) findWay(si, tag int) int {
	for w, ln := range c.set(si) {
		if ln.valid && ln.tag == tag {
			return w
		}
	}
	return -1
}

// victimWay selects the way to replace in set si according to the policy.
func (c *Cache) victimWay(si int) int {
	ways := c.set(si)
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			return w
		}
	}
	if c.cfg.Replacement == Random {
		// xorshift64* — deterministic so that backward simulation
		// (a re-run of the same cycle count) reproduces identical
		// cache states.
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return int((c.rng * 0x2545F4914F6CDD1D) >> 33 % uint64(len(ways)))
	}
	// LRU evicts the way used longest ago, FIFO the way loaded longest ago.
	oldest := 0
	for w := 1; w < len(ways); w++ {
		if c.cfg.Replacement == FIFO && ways[w].loadedAt < ways[oldest].loadedAt ||
			c.cfg.Replacement != FIFO && ways[w].lastUse < ways[oldest].lastUse {
			oldest = w
		}
	}
	return oldest
}

// fill loads the line of tag into set si, evicting a victim. The request
// reaches memory after the lookup and the replacement delay; a dirty
// victim is written back first, then the line is read. It returns the way
// and the cycle the line has arrived.
func (c *Cache) fill(si, tag int, now uint64) (int, uint64, *fault.Exception) {
	w := c.victimWay(si)
	ln := &c.set(si)[w]
	at := now + uint64(c.cfg.AccessDelay) + uint64(c.cfg.ReplacementDelay)
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			var exc *fault.Exception
			if at, exc = c.writebackLine(si, w, at); exc != nil {
				return 0, 0, exc
			}
		}
	}
	at, exc := c.backing.Access(&memory.Transaction{Addr: c.lineAddr(si, tag), Line: c.lineData(si, w)}, at)
	if exc != nil {
		return 0, 0, exc
	}
	if ln.valid {
		c.dropView(si, w)
	} else {
		c.indexed = false
	}
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	ln.loadedAt = now
	return w, at, nil
}

// lineAddr reconstructs the base address of a line from set index and tag.
func (c *Cache) lineAddr(si, tag int) int {
	return (tag*c.numSets + si) * c.cfg.LineSize
}

// writebackLine writes way w of set si to memory, issued at now, and
// returns the cycle the write completes.
func (c *Cache) writebackLine(si, w int, now uint64) (uint64, *fault.Exception) {
	tx := memory.Transaction{Addr: c.lineAddr(si, c.set(si)[w].tag), IsStore: true, Line: c.lineData(si, w)}
	done, exc := c.backing.Access(&tx, now)
	if exc != nil {
		return now, exc
	}
	c.stats.Writebacks++
	return done, nil
}

// Access services tx at now and returns the cycle it completes; a disabled
// cache passes it to main memory. A transaction that spans two cache
// lines is serviced as two sequential line accesses.
func (c *Cache) Access(tx *memory.Transaction, now uint64) (uint64, *fault.Exception) {
	if !c.cfg.Enabled {
		return c.backing.Access(tx, now)
	}
	if tx.Addr < 0 || tx.Size <= 0 || tx.Addr+tx.Size > c.backing.Size() {
		return now, fault.New(fault.InvalidMemoryAccess,
			"access of %d bytes at address %d outside memory of %d bytes",
			tx.Size, tx.Addr, c.backing.Size())
	}
	finish := now + uint64(c.cfg.AccessDelay)
	missed := false

	firstLine := tx.Addr / c.cfg.LineSize
	lastLine := (tx.Addr + tx.Size - 1) / c.cfg.LineSize
	for block := firstLine; block <= lastLine; block++ {
		si, tag := block%c.numSets, block/c.numSets
		c.stats.Accesses++
		w := c.findWay(si, tag)
		if w < 0 {
			missed = true
			c.stats.Misses++
			if tx.IsStore && c.cfg.Write == WriteThrough {
				// No-write-allocate: the store goes straight to
				// memory below.
				continue
			}
			var done uint64
			var exc *fault.Exception
			w, done, exc = c.fill(si, tag, now)
			if exc != nil {
				return now, exc
			}
			finish = max(finish, done)
		} else {
			c.stats.Hits++
		}
		c.tick++
		c.set(si)[w].lastUse = c.tick
		c.copyData(tx, si, w, block)
	}

	if tx.IsStore && c.cfg.Write == WriteThrough {
		// Forward the store to memory (the authoritative copy); after a
		// miss it leaves once the lookup is done.
		issue := now
		if missed {
			issue += uint64(c.cfg.AccessDelay)
		}
		done, exc := c.backing.Access(tx, issue)
		if exc != nil {
			return now, exc
		}
		finish = max(finish, done)
	}
	return finish, nil
}

// copyData moves the bytes of tx that fall within line block between the
// transaction payload and the line buffer.
func (c *Cache) copyData(tx *memory.Transaction, si, w, block int) {
	ln := &c.set(si)[w]
	data := c.lineData(si, w)
	if tx.IsStore {
		c.dropView(si, w)
	}
	lineBase := block * c.cfg.LineSize
	for i := 0; i < tx.Size; i++ {
		a := tx.Addr + i
		if a/c.cfg.LineSize != block {
			continue
		}
		off := a - lineBase
		if tx.IsStore {
			data[off] = byte(tx.Data >> (8 * i))
			if c.cfg.Write == WriteBack {
				ln.dirty = true
			}
		} else {
			tx.Data &^= uint64(0xFF) << (8 * i)
			tx.Data |= uint64(data[off]) << (8 * i)
		}
	}
}

// FlushAll writes every dirty line back to memory, one after another
// (paper §III-A: "transactions ... support cache line flushing"). It
// returns the cycle at which the flush completes.
func (c *Cache) FlushAll(now uint64) uint64 {
	if !c.cfg.Enabled {
		return now
	}
	finish := now
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			si, w := i/c.cfg.Associativity, i%c.cfg.Associativity
			done, exc := c.writebackLine(si, w, finish)
			if exc != nil {
				continue // flush is best-effort at simulation end
			}
			finish = done
			ln.dirty = false
			c.dropView(si, w)
		}
	}
	return finish
}

// LineView describes one line for the GUI's cache pane (Fig. 12 shows the
// cache organized into lines).
type LineView struct {
	Set   int    `json:"set"`
	Way   int    `json:"way"`
	Valid bool   `json:"valid"`
	Dirty bool   `json:"dirty"`
	Tag   int    `json:"tag"`
	Addr  int    `json:"addr"`
	Data  []byte `json:"data,omitempty"`

	// enc is the view's JSON encoding as Lines built it, spliced by
	// AppendJSON instead of encoding the fields again. It is immutable and
	// describes the fields above as Lines returned them: a view whose
	// exported fields are edited afterwards must be copied field by field
	// (which leaves enc behind), and a view built anywhere else has none.
	enc []byte
}

// AppendJSON appends the view as encoding/json writes it from the struct
// tags above.
func (lv *LineView) AppendJSON(dst []byte) []byte {
	if lv.enc != nil {
		return append(dst, lv.enc...)
	}
	dst = append(dst, `{"set":`...)
	dst = strconv.AppendInt(dst, int64(lv.Set), 10)
	dst = append(dst, `,"way":`...)
	dst = strconv.AppendInt(dst, int64(lv.Way), 10)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendBool(dst, lv.Valid)
	dst = append(dst, `,"dirty":`...)
	dst = strconv.AppendBool(dst, lv.Dirty)
	dst = append(dst, `,"tag":`...)
	dst = strconv.AppendInt(dst, int64(lv.Tag), 10)
	dst = append(dst, `,"addr":`...)
	dst = strconv.AppendInt(dst, int64(lv.Addr), 10)
	if len(lv.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = jsonenc.Bytes(dst, lv.Data)
	}
	return append(dst, '}')
}

var lineViewKeys = []string{"set", "way", "valid", "dirty", "tag", "addr", "data"}

// DecodeJSON reads a view as encoding/json reads it into a zero LineView,
// without reflection; r fails on what it cannot read that way
// (jsonenc.Reader). A decoded view has no encoding of its own to splice.
func (lv *LineView) DecodeJSON(r *jsonenc.Reader) {
	var seen uint64
	for more := r.Enter('{'); more; more = r.Next('}') {
		switch r.Key(lineViewKeys, &seen) {
		case "set":
			lv.Set = r.Int()
		case "way":
			lv.Way = r.Int()
		case "valid":
			lv.Valid = r.Bool()
		case "dirty":
			lv.Dirty = r.Bool()
		case "tag":
			lv.Tag = r.Int()
		case "addr":
			lv.Addr = r.Int()
		case "data":
			lv.Data = r.Bytes()
		}
	}
}

// dropView marks what Lines last reported for a valid line as out of
// date. A line Lines has not listed yet has nothing to drop.
func (c *Cache) dropView(si, w int) {
	if c.views == nil {
		return
	}
	k, found := slices.BinarySearchFunc(c.views, si*c.cfg.Associativity+w, func(lv LineView, key int) int {
		return lv.Set*c.cfg.Associativity + lv.Way - key
	})
	if !found {
		return
	}
	if c.lent {
		c.views, c.lent = slices.Clone(c.views), false
	}
	c.views[k].enc = nil
}

// index lays views out again after lines turned valid: one entry per
// valid line in set-major order, keeping every entry it already had.
// The new entries carry only their position; Lines builds the rest.
func (c *Cache) index() {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	var views []LineView
	if n > 0 {
		views = make([]LineView, 0, n)
	}
	old := c.views
	for i := range c.lines {
		if !c.lines[i].valid {
			continue
		}
		si, w := i/c.cfg.Associativity, i%c.cfg.Associativity
		if len(old) > 0 && old[0].Set == si && old[0].Way == w {
			views, old = append(views, old[0]), old[1:]
			continue
		}
		views = append(views, LineView{Set: si, Way: w})
	}
	c.views, c.indexed, c.lent = views, true, false
}

// Lines returns a snapshot of the valid cache lines for display, in
// set-major order; an invalid line shows nothing but its position, so it
// is not listed. Only the lines that changed since the previous call are
// copied and encoded again, and while none does, successive calls return
// the same slice. The result is read-only: nothing in it is written after
// it is returned, so a caller may keep and read it after the machine has
// moved on, and must not write it either.
func (c *Cache) Lines() []LineView {
	if !c.cfg.Enabled {
		return nil
	}
	if !c.indexed {
		c.index()
	}
	// One slab holds the data copies and fragments of every line rebuilt
	// by this call: a line encodes to under 112 bytes besides its data,
	// which it carries raw and in base64.
	var size int
	for i := range c.views {
		if c.views[i].enc == nil {
			size += 112 + c.cfg.LineSize + base64.StdEncoding.EncodedLen(c.cfg.LineSize)
		}
	}
	if size > 0 {
		slab := make([]byte, 0, size)
		for i := range c.views {
			lv := &c.views[i]
			if lv.enc != nil {
				continue
			}
			si, w := lv.Set, lv.Way
			ln := &c.set(si)[w]
			*lv = LineView{Set: si, Way: w, Valid: true, Dirty: ln.dirty, Tag: ln.tag, Addr: c.lineAddr(si, ln.tag)}
			at := len(slab)
			slab = append(slab, c.lineData(si, w)...)
			lv.Data = slab[at:len(slab):len(slab)]
			// Should the slab grow after all, the fragments cut so far
			// keep the array they were written to.
			at = len(slab)
			slab = lv.AppendJSON(slab)
			lv.enc = slab[at:len(slab):len(slab)]
		}
	}
	c.lent = true
	return c.views
}
