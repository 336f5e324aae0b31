// Package cache implements the simulator's L1 data cache, configurable in
// capacity, line size, associativity, replacement policy (LRU, FIFO or
// Random) and store behaviour (write-back or write-through), with separate
// access and line-replacement delays — the full option set of the paper's
// Cache settings tab (§II-C).
//
// The cache sits between the processor's memory-access unit and main
// memory, servicing the same transactional interface (memory.Port).
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
type ReplacementPolicy uint8

// Replacement policies offered by the paper's settings window.
const (
	LRU ReplacementPolicy = iota
	FIFO
	Random
)

var policyNames = [...]string{"LRU", "FIFO", "Random"}

// String returns the display name of the policy.
func (p ReplacementPolicy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (ReplacementPolicy, error) {
	for i, n := range policyNames {
		if n == s {
			return ReplacementPolicy(i), nil
		}
	}
	return LRU, fmt.Errorf("cache: unknown replacement policy %q", s)
}

// WritePolicy selects the store behaviour.
type WritePolicy uint8

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
	if int(p) < len(writePolicyNames) {
		return writePolicyNames[p]
	}
	return fmt.Sprintf("writePolicy(%d)", uint8(p))
}

// ParseWritePolicy is the inverse of String.
func ParseWritePolicy(s string) (WritePolicy, error) {
	for i, n := range writePolicyNames {
		if n == s {
			return WritePolicy(i), nil
		}
	}
	return WriteBack, fmt.Errorf("cache: unknown write policy %q", s)
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

// Upper bounds on an enabled cache's geometry, each 8x the presets' value
// (256 lines of 64 B): a cache allocates bookkeeping per line up front and
// a set's data on its first fill (docs/api.md lists every bound).
const (
	MaxLines    = 2048
	MaxLineSize = 512
)

// Validate checks geometric consistency.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Lines <= 0 || c.Lines > MaxLines {
		return fmt.Errorf("cache: Lines must be in [1, %d], got %d", MaxLines, c.Lines)
	}
	if c.LineSize <= 0 || c.LineSize > MaxLineSize || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: LineSize must be a power of two in [1, %d], got %d", MaxLineSize, c.LineSize)
	}
	if c.Associativity <= 0 || c.Lines%c.Associativity != 0 {
		return fmt.Errorf("cache: Associativity %d must divide Lines %d", c.Associativity, c.Lines)
	}
	if c.AccessDelay < 0 || c.ReplacementDelay < 0 {
		return fmt.Errorf("cache: delays must be non-negative")
	}
	return nil
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
// (paper §II-D: accesses, hit and miss ratios, bytes written).
type Stats struct {
	Accesses     uint64 `json:"accesses"`
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	Writebacks   uint64 `json:"writebacks"`
	BytesWritten uint64 `json:"bytesWritten"`
}

// HitRate returns hits/accesses in [0,1].
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is the L1 cache. It implements memory.Port.
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
	stats   Stats
	// views caches what Lines last reported per line (set-major, like
	// lines), each with its encoded fragment. Nil until the first
	// Lines call, so a machine nobody looks at carries none. An entry is
	// current while its enc is non-nil: whatever changes what a line
	// displays — a store, a fill, a flush, a restore — drops the entry
	// (dropView, DecodeState), and the next Lines rebuilds only those.
	// Lines hands the slice itself out and sets lent; from then on a drop
	// continues on a copy, so nothing a caller holds is written again.
	views []LineView
	lent  bool
}

// New builds a cache over the given backing memory. The configuration must
// be valid (see Config.Validate).
func New(cfg Config, backing *memory.Main) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, backing: backing, rng: 0x9E3779B97F4A7C15}
	if cfg.Enabled {
		c.numSets = cfg.Lines / cfg.Associativity
		c.lines = make([]line, cfg.Lines)
		c.data = make([][]byte, c.numSets)
	}
	return c, nil
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

// Stats returns the collected statistics.
func (c *Cache) Stats() Stats { return c.stats }

// setIndexAndTag splits an address into its set index and tag.
func (c *Cache) setIndexAndTag(addr int) (int, int) {
	block := addr / c.cfg.LineSize
	return block % c.numSets, block / c.numSets
}

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
	switch c.cfg.Replacement {
	case FIFO:
		oldest, at := 0, ways[0].loadedAt
		for w := 1; w < len(ways); w++ {
			if ways[w].loadedAt < at {
				oldest, at = w, ways[w].loadedAt
			}
		}
		return oldest
	case Random:
		// xorshift64* — deterministic so that backward simulation
		// (a re-run of the same cycle count) reproduces identical
		// cache states.
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return int((c.rng * 0x2545F4914F6CDD1D) >> 33 % uint64(len(ways)))
	default: // LRU
		oldest, at := 0, ways[0].lastUse
		for w := 1; w < len(ways); w++ {
			if ways[w].lastUse < at {
				oldest, at = w, ways[w].lastUse
			}
		}
		return oldest
	}
}

// fill loads the line containing addr into set si, evicting a victim. It
// returns the way index and the number of extra memory latency cycles the
// fill cost (victim write-back + line fetch).
func (c *Cache) fill(si, tag int, now uint64) (int, uint64, *fault.Exception) {
	w := c.victimWay(si)
	ln := &c.set(si)[w]
	var penalty uint64
	if ln.valid {
		c.stats.Evictions++
		if ln.dirty {
			if exc := c.writebackLine(si, w); exc != nil {
				return 0, 0, exc
			}
			penalty += uint64(c.backing.Config().StoreLatency)
		}
	}
	if exc := c.backing.ReadInto(c.lineAddr(si, tag), c.lineData(si, w)); exc != nil {
		return 0, 0, exc
	}
	c.dropView(si, w)
	ln.valid = true
	ln.dirty = false
	ln.tag = tag
	ln.loadedAt = now
	penalty += uint64(c.backing.Config().LoadLatency)
	return w, penalty, nil
}

// lineAddr reconstructs the base address of a line from set index and tag.
func (c *Cache) lineAddr(si, tag int) int {
	return (tag*c.numSets + si) * c.cfg.LineSize
}

func (c *Cache) writebackLine(si, w int) *fault.Exception {
	addr := c.lineAddr(si, c.set(si)[w].tag)
	if exc := c.backing.WriteBytes(addr, c.lineData(si, w)); exc != nil {
		return exc
	}
	c.stats.Writebacks++
	c.stats.BytesWritten += uint64(c.cfg.LineSize)
	return nil
}

// Access implements memory.Port. A transaction that spans two cache lines
// is serviced as two sequential line accesses.
func (c *Cache) Access(tx *memory.Transaction, now uint64) (uint64, *fault.Exception) {
	if !c.cfg.Enabled {
		return c.backing.Access(tx, now)
	}
	if tx.Addr < 0 || tx.Size <= 0 || tx.Addr+tx.Size > c.backing.Size() {
		return now, fault.New(fault.InvalidMemoryAccess,
			"access of %d bytes at address %d outside memory of %d bytes",
			tx.Size, tx.Addr, c.backing.Size())
	}
	tx.IssuedAt = now
	finish := now + uint64(c.cfg.AccessDelay)
	hit := true

	firstLine := tx.Addr / c.cfg.LineSize
	lastLine := (tx.Addr + tx.Size - 1) / c.cfg.LineSize
	for block := firstLine; block <= lastLine; block++ {
		si, tag := block%c.numSets, block/c.numSets
		c.stats.Accesses++
		w := c.findWay(si, tag)
		if w < 0 {
			hit = false
			c.stats.Misses++
			if tx.IsStore && c.cfg.Write == WriteThrough {
				// No-write-allocate: the store goes straight to
				// memory below.
				finish = max64(finish, now+uint64(c.cfg.AccessDelay)+uint64(c.backing.Config().StoreLatency))
				continue
			}
			var penalty uint64
			var exc *fault.Exception
			w, penalty, exc = c.fill(si, tag, now)
			if exc != nil {
				return now, exc
			}
			finish = max64(finish, now+uint64(c.cfg.AccessDelay)+uint64(c.cfg.ReplacementDelay)+penalty)
		} else {
			c.stats.Hits++
		}
		if w >= 0 {
			c.tick++
			c.set(si)[w].lastUse = c.tick
			c.copyData(tx, si, w, block)
		}
	}

	if tx.IsStore && c.cfg.Write == WriteThrough {
		// Forward the store to memory (the authoritative copy).
		shadow := *tx
		if _, exc := c.backing.Access(&shadow, now); exc != nil {
			return now, exc
		}
		c.stats.BytesWritten += uint64(tx.Size)
		finish = max64(finish, shadow.FinishAt)
	}
	tx.HitCache = hit
	tx.FinishAt = finish
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

// FlushAll writes every dirty line back to memory (paper §III-A:
// "transactions ... support cache line flushing"). It returns the cycle at
// which the flush completes.
func (c *Cache) FlushAll(now uint64) uint64 {
	if !c.cfg.Enabled {
		return now
	}
	finish := now
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && ln.dirty {
			si, w := i/c.cfg.Associativity, i%c.cfg.Associativity
			if exc := c.writebackLine(si, w); exc != nil {
				continue // flush is best-effort at simulation end
			}
			ln.dirty = false
			c.dropView(si, w)
			finish += uint64(c.backing.Config().StoreLatency)
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

// dropView marks what Lines last reported for a line as out of date.
func (c *Cache) dropView(si, w int) {
	if c.views == nil {
		return
	}
	if c.lent {
		c.views, c.lent = slices.Clone(c.views), false
	}
	c.views[si*c.cfg.Associativity+w] = LineView{}
}

// Lines returns a snapshot of all cache lines for display. Only the lines
// that changed since the previous call are copied and encoded again, and
// while none does, successive calls return the same slice. The result is
// read-only: nothing in it is written after it is returned, so a caller
// may keep and read it after the machine has moved on, and must not
// write it either.
func (c *Cache) Lines() []LineView {
	if !c.cfg.Enabled {
		return nil
	}
	if c.views == nil {
		c.views = make([]LineView, c.cfg.Lines)
	}
	// One slab holds the data copies and fragments of every line rebuilt
	// by this call: invalid lines encode to under 80 bytes, valid ones add
	// their data raw and in base64.
	var size int
	for i := range c.views {
		if c.views[i].enc == nil {
			size += 80
			if c.lines[i].valid {
				size += 32 + c.cfg.LineSize + base64.StdEncoding.EncodedLen(c.cfg.LineSize)
			}
		}
	}
	if size > 0 {
		slab := make([]byte, 0, size)
		for i := range c.views {
			lv := &c.views[i]
			if lv.enc != nil {
				continue
			}
			si, w := i/c.cfg.Associativity, i%c.cfg.Associativity
			ln := &c.lines[i]
			*lv = LineView{Set: si, Way: w, Valid: ln.valid, Dirty: ln.dirty}
			if ln.valid {
				lv.Tag = ln.tag
				lv.Addr = c.lineAddr(si, ln.tag)
				at := len(slab)
				slab = append(slab, c.lineData(si, w)...)
				lv.Data = slab[at:len(slab):len(slab)]
			}
			// Should the slab grow after all, the fragments cut so far
			// keep the array they were written to.
			at := len(slab)
			slab = lv.AppendJSON(slab)
			lv.enc = slab[at:len(slab):len(slab)]
		}
	}
	c.lent = true
	return c.views
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
