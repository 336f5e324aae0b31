package server

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

// programCacheBudget bounds the bytes the cache retains. An entry keeps
// its source text, the image pages the assembler wrote and about 0.35 KB
// of tables per instruction — 2.7 KB for the default example, 113 KB for
// the 310-instruction quicksort -O0 — and the /simulate replies memoized
// on it, 1.5 KB each without a processor state and about 6 KB with one.
// 8 MiB is 70 programs of the larger kind, several times what a class
// working through a handful of examples submits. It is not larger
// because whatever the cache retains is live heap the collector marks on
// every cycle whether or not it is ever asked for again
// (docs/performance.md).
const programCacheBudget = 8 << 20

// programKey identifies a compiled Program by everything it depends on.
// text is the exact source, compared in full: a collision on a digest of
// it would hand one user another's program. The architecture is not part
// of the key beyond its memory shape, so presets share Programs; neither
// is the entry point, which belongs to the machine.
type programKey struct {
	c        bool // text is C, compiled at optimize; otherwise assembly
	optimize int
	mem      sim.MemoryConfig
	text     string
}

type programEntry struct {
	key  programKey
	prog *sim.Program
	// replies are the encoded /simulate replies of the requests that ran
	// this Program, by the rest of the request: the memo a repeated
	// request is answered from. Their bytes count in the entry's, so
	// evicting the Program drops them.
	replies map[runKey][]byte
	bytes   int
}

// runKey is a /simulate request but for its source, which the key of the
// Program entry holding the memo already is: the two together are the
// whole request, compared in full. A request carrying a checkpoint or
// asking for a time-parallel run is never memoized, so the checkpoint has
// no place here (TestReplyMemoKeysEveryField holds this to the fields of
// api.SimulateRequest).
type runKey struct {
	language, entry, preset      string
	config                       string // the architecture document, byte for byte
	optimize, parallelism        int
	steps, warmupCycles          uint64
	memFills                     string // appendMemFills
	includeState, includeLog     bool
	verbose, fastForward, traced bool
	trace                        api.TraceOptions
}

func runKeyOf(req *api.SimulateRequest) runKey {
	k := runKey{
		language: req.Language, entry: req.Entry, preset: req.Preset,
		optimize: req.Optimize, parallelism: req.Parallelism,
		steps: req.Steps, warmupCycles: req.WarmupCycles,
		includeState: req.IncludeState, includeLog: req.IncludeLog,
		verbose: req.Verbose, fastForward: req.FastForward,
	}
	if req.Config != nil {
		k.config = string(*req.Config)
	}
	if len(req.MemFills) > 0 {
		k.memFills = string(appendMemFills(nil, req.MemFills))
	}
	if req.Trace != nil {
		k.traced, k.trace = true, *req.Trace
	}
	return k
}

// appendMemFills encodes fills unambiguously: every field, lengths first.
func appendMemFills(b []byte, fills []api.MemFill) []byte {
	for _, f := range fills {
		b = binary.AppendUvarint(b, uint64(len(f.Label)))
		b = append(b, f.Label...)
		for _, n := range []int64{int64(f.ElemSize), int64(f.Repeat), int64(f.Random), f.Seed, int64(len(f.Values))} {
			b = binary.AppendVarint(b, n)
		}
		for _, v := range f.Values {
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

// size is what a memoized reply's key is charged: its variable-length
// parts.
func (k *runKey) size() int {
	return len(k.language) + len(k.entry) + len(k.preset) + len(k.config) + len(k.memFills) +
		len(k.trace.Stages) + len(k.trace.PCRange)
}

// replyLookup carries one /simulate request through its Program lookup.
// On a hit whose memo holds the request, reply is the answer; otherwise,
// when the request was seen before, entry and key say where the reply its
// run produces is to be stored (programCache.memoize).
type replyLookup struct {
	req   *api.SimulateRequest
	reply []byte
	entry *programEntry
	key   runKey
}

// replySight is what the admission slots remember of a reply: the entry
// it would be stored on and its key.
type replySight struct {
	entry *programEntry
	key   runKey
}

// programCache is the server's bounded LRU of compiled Programs: the
// requests of a class running the same few sources share one Program per
// source, so all but the first skip compiling, assembling and
// specializing (docs/architecture.md). Programs are immutable, so an
// entry handed out stays valid after its eviction; the cache only decides
// what it keeps alive itself. A nil *programCache caches nothing: every
// lookup builds.
//
// A Program's entry also memoizes the encoded /simulate replies of the
// requests that ran it (runKey): the simulation is deterministic, so a
// repeated request is answered with the bytes its first run produced.
// The memo is consulted only on a Program hit and is charged to the same
// budget.
//
// A source is stored the second time it is built, not the first, and a
// reply the second time its request runs on a cached Program: seen
// remembers, by hash, the keys that missed once. Sources that never
// repeat then retain nothing, so a stream of them costs what it costs
// uncached instead of filling the cache with Programs the collector has
// to mark (measured: +9 % CPU per request on such a stream when every
// miss was stored). The hashes only time the admission; a collision
// admits a source one build early or late and never selects a Program.
type programCache struct {
	budget int

	mu    sync.Mutex
	byKey map[programKey]*list.Element
	lru   *list.List // of *programEntry; front = most recent
	bytes int
	seen  [1024]uint64 // direct-mapped by hash
	seed  maphash.Seed

	hits, misses, evictions, replyHits uint64
}

func newProgramCache(budget int) *programCache {
	return &programCache{
		budget: budget, seed: maphash.MakeSeed(),
		byKey: make(map[programKey]*list.Element), lru: list.New(),
	}
}

// resolve returns the Program stored under key, or builds it, storing it
// if the key has missed before. Failed builds are not stored. Concurrent
// misses on one key each build; the first stored is returned to all. A
// non-nil l is a /simulate request whose reply memo a hit consults.
func (c *programCache) resolve(key programKey, l *replyLookup, build func() (*sim.Program, error)) (*sim.Program, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		e := el.Value.(*programEntry)
		if l != nil {
			c.consult(e, l)
		}
		c.mu.Unlock()
		return e.prog, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := build()
	if err != nil {
		return nil, err
	}
	size := len(key.text) + p.RetainedBytes()
	if size > c.budget {
		return p, nil
	}
	h := maphash.Comparable(c.seed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		return el.Value.(*programEntry).prog, nil
	}
	if !c.sighted(h) {
		return p, nil
	}
	e := &programEntry{key: key, prog: p, bytes: size}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	c.evict()
	return p, nil
}

// sighted reports whether hash h was seen before, remembering it if not.
// The caller holds mu.
func (c *programCache) sighted(h uint64) bool {
	slot := &c.seen[h%uint64(len(c.seen))]
	if *slot == h {
		return true
	}
	*slot = h
	return false
}

// evict drops least recently used entries, replies and all, until the
// cache is within its budget. The caller holds mu.
func (c *programCache) evict() {
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*programEntry)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evictions++
	}
}

// consult looks l's request up in e's reply memo: a stored reply answers
// it; otherwise, if the request ran on e before, l is marked to store the
// reply this run produces. The caller holds mu.
func (c *programCache) consult(e *programEntry, l *replyLookup) {
	k := runKeyOf(l.req)
	if reply, ok := e.replies[k]; ok {
		c.replyHits++
		l.reply = reply
		return
	}
	if c.sighted(maphash.Comparable(c.seed, replySight{e, k})) {
		l.entry, l.key = e, k
	}
}

// memoize stores reply, the encoded answer to l's request, on the entry
// consult chose, unless that entry was evicted meanwhile, a concurrent
// twin of the request stored it first, or the entry would outgrow the
// whole budget. reply is kept as it is and must not be written again.
func (c *programCache) memoize(l *replyLookup, reply []byte) {
	e, size := l.entry, len(reply)+l.key.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[e.key]
	if !ok || el.Value != e || e.replies[l.key] != nil || e.bytes+size > c.budget {
		return
	}
	if e.replies == nil {
		e.replies = make(map[runKey][]byte)
	}
	e.replies[l.key] = reply
	e.bytes += size
	c.bytes += size
	c.lru.MoveToFront(el)
	c.evict()
}

// assemble resolves assembly source. Its signature is the lookup
// sim.RestoreWith takes, so a checkpoint finds the Program of the request
// that produced it.
func (c *programCache) assemble(src string, mem sim.MemoryConfig) (*sim.Program, error) {
	return c.assembleFor(src, mem, nil)
}

// assembleFor is assemble for a /simulate request whose reply memo a hit
// consults (resolve).
func (c *programCache) assembleFor(src string, mem sim.MemoryConfig, l *replyLookup) (*sim.Program, error) {
	return c.resolve(programKey{mem: mem, text: src}, l, func() (*sim.Program, error) {
		return sim.Assemble(src, mem)
	})
}

// compileC resolves C source. The generated assembly is resolved through
// assemble, so the Program is also found under that text — which is what
// a checkpoint of the resulting machine embeds. Only the C text's lookup
// consults l's reply memo.
func (c *programCache) compileC(csrc string, optimize int, mem sim.MemoryConfig, l *replyLookup) (*sim.Program, error) {
	return c.resolve(programKey{c: true, optimize: optimize, mem: mem, text: csrc}, l, func() (*sim.Program, error) {
		res, err := sim.CompileC(csrc, optimize)
		if err != nil {
			return nil, err
		}
		p, err := c.assemble(res.Assembly, mem)
		if err != nil {
			return nil, fmt.Errorf("sim: assembling compiler output: %w", err)
		}
		return p, nil
	})
}

// restoreSession rebuilds an interactive session's machine from a
// checkpoint. Interactive sessions keep interval snapshots for
// O(interval) rewind (see handleSessionNew), so a machine that comes back
// from a checkpoint gets them re-enabled instead of being silently
// demoted to from-zero replays.
func (c *programCache) restoreSession(data []byte) (*sim.Machine, error) {
	m, err := sim.RestoreWith(data, c.assemble)
	if err != nil {
		return nil, err
	}
	if m.SnapshotInterval() == 0 {
		m.EnableSnapshots(0)
	}
	return m, nil
}

// programCacheStats is the cache's contribution to api.Metrics.
type programCacheStats struct {
	hits, misses, evictions, replyHits uint64
	entries, bytes                     int
}

func (c *programCache) stats() programCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return programCacheStats{c.hits, c.misses, c.evictions, c.replyHits, c.lru.Len(), c.bytes}
}

func (c *programCache) resetCounters() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions, c.replyHits = 0, 0, 0, 0
	c.mu.Unlock()
}
