package server

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"

	"riscvsim/internal/api"
	"riscvsim/sim"
)

// programCacheBudget bounds the bytes the cache retains. A Program keeps
// its source text, the image pages the assembler wrote and about 0.35 KB
// of tables per instruction — 2.7 KB for the default example, 113 KB for
// the 310-instruction quicksort -O0 — and a memoized /simulate reply is
// 1.5 KB without a processor state and about 6 KB with one, plus its
// request's source. 8 MiB is 70 programs of the larger kind, several
// times what a class working through a handful of examples submits. It
// is not larger because whatever the cache retains is live heap the
// collector marks on every cycle whether or not it is ever asked for
// again (docs/performance.md).
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

// runKey is a /simulate request but for its source: with the source
// text it is the whole request, compared in full. A request carrying a
// checkpoint or asking for a time-parallel run is never memoized, so the
// checkpoint has no place here (TestReplyMemoKeysEveryField holds this to
// the fields of api.SimulateRequest).
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

// cacheKey names an entry of the program cache: a Program by its
// programKey, or, when reply is set, a memoized /simulate reply by its
// request's source text and runKey. The runKey holds the language,
// optimize level, preset and configuration, so a reply's key determines
// its Program's too.
type cacheKey struct {
	prog  programKey
	run   runKey
	reply bool
}

// replyKeyOf is the key req's reply is memoized under.
func replyKeyOf(req *api.SimulateRequest) cacheKey {
	return cacheKey{prog: programKey{text: req.Code}, run: runKeyOf(req), reply: true}
}

// size is what an entry is charged for its key: the variable-length
// parts.
func (k *cacheKey) size() int {
	r := &k.run
	return len(k.prog.text) + len(r.language) + len(r.entry) + len(r.preset) + len(r.config) +
		len(r.memFills) + len(r.trace.Stages) + len(r.trace.PCRange)
}

// cached is an entry of the program cache: a Program, or the encoded
// reply a request was answered with.
type cached struct {
	prog  *sim.Program
	reply []byte
}

// programCache is the server's bounded LRU of compiled Programs: the
// requests of a class running the same few sources share one Program per
// source, so all but the first skip compiling, assembling and
// specializing (docs/architecture.md). Programs are immutable, so an
// entry handed out stays valid after its eviction; the cache only decides
// what it keeps alive itself. A nil *programCache caches nothing: every
// lookup builds.
//
// The same LRU memoizes the encoded /simulate replies: the simulation is
// deterministic in its request, so a repeated request is answered with
// the bytes its first run produced, before anything is built. A reply is
// an entry of its own, charged to the same budget; it does not need its
// Program to stay cached.
//
// A source is stored the second time it is built, not the first, and a
// reply the second time its request runs: seen remembers, by hash, the
// keys that missed once. Sources that never repeat then retain nothing,
// so a stream of them costs what it costs uncached instead of filling
// the cache with Programs the collector has to mark (measured: +9 % CPU
// per request on such a stream when every miss was stored). The hashes
// only time the admission and never select an entry. seen is a fixed
// table of two-way sets: a sighting takes the newer way and moves the
// older one over, so two keys that share a set — a request's Program key
// and reply key, or two requests that alternate — both stay remembered
// and are admitted on their second sighting. A third key in the set
// forgets the oldest, which is admitted a sighting late; a hash equal to
// one remembered admits its key a sighting early.
type programCache struct {
	mu      sync.Mutex
	entries *lru[cacheKey, cached]
	seen    [512][2]uint64 // two-way sets by hash, the newer way first
	seed    maphash.Seed

	hits, misses, evictions, replyHits uint64
}

func newProgramCache(budget int) *programCache {
	return &programCache{entries: newLRU[cacheKey, cached](budget), seed: maphash.MakeSeed()}
}

// resolve returns the Program stored under key, or builds it, storing it
// if the key has missed before. Failed builds are not stored. Concurrent
// misses on one key each build; the first stored is returned to all.
func (c *programCache) resolve(key programKey, build func() (*sim.Program, error)) (*sim.Program, error) {
	if c == nil {
		return build()
	}
	k := cacheKey{prog: key}
	c.mu.Lock()
	if e, ok := c.entries.get(k); ok {
		c.hits++
		c.mu.Unlock()
		return e.prog, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := build()
	if err != nil {
		return nil, err
	}
	h := maphash.Comparable(c.seed, k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.get(k); ok {
		return e.prog, nil
	}
	if c.sighted(h) {
		c.add(k, cached{prog: p}, p.RetainedBytes())
	}
	return p, nil
}

// reply returns the reply memoized under k. On a miss it reports whether
// k was looked up before, in which case the reply the request's run
// produces is to be stored (putReply).
func (c *programCache) reply(k cacheKey) (body []byte, store bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.get(k); ok {
		c.replyHits++
		return e.reply, false
	}
	return nil, c.sighted(maphash.Comparable(c.seed, k))
}

// putReply stores body, the encoded reply of the request keyed k. It is
// kept as it is and must not be written again. A concurrent twin of the
// request stored first keeps its bytes, which are the same.
func (c *programCache) putReply(k cacheKey, body []byte) {
	c.mu.Lock()
	c.add(k, cached{reply: body}, len(body))
	c.mu.Unlock()
}

// add stores e under k, charged its key and size bytes. The caller holds
// mu.
func (c *programCache) add(k cacheKey, e cached, size int) {
	c.evictions += uint64(len(c.entries.add(k, e, k.size()+size)))
}

// sighted reports whether hash h was seen before, remembering it if not.
// The caller holds mu.
func (c *programCache) sighted(h uint64) bool {
	set := &c.seen[h%uint64(len(c.seen))]
	if set[0] == h || set[1] == h {
		return true
	}
	set[1], set[0] = set[0], h
	return false
}

// assemble resolves assembly source. Its signature is the lookup
// sim.RestoreWith takes, so a checkpoint finds the Program of the request
// that produced it.
func (c *programCache) assemble(src string, mem sim.MemoryConfig) (*sim.Program, error) {
	return c.resolve(programKey{mem: mem, text: src}, func() (*sim.Program, error) {
		return sim.Assemble(src, mem)
	})
}

// compileC resolves C source. The generated assembly is resolved through
// assemble, so the Program is also found under that text — which is what
// a checkpoint of the resulting machine embeds.
func (c *programCache) compileC(csrc string, optimize int, mem sim.MemoryConfig) (*sim.Program, error) {
	return c.resolve(programKey{c: true, optimize: optimize, mem: mem, text: csrc}, func() (*sim.Program, error) {
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
	m.EnableSnapshots(0)
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
	return programCacheStats{c.hits, c.misses, c.evictions, c.replyHits, c.entries.len(), c.entries.size}
}

func (c *programCache) resetCounters() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions, c.replyHits = 0, 0, 0, 0
	c.mu.Unlock()
}
