package server

import (
	"container/list"
	"fmt"
	"hash/maphash"
	"sync"

	"riscvsim/sim"
)

// programCacheBudget bounds the bytes the cached Programs retain. An entry
// keeps its source text, the memory image (64 KiB in every preset) and
// about 0.35 KB of tables per instruction: 73 KB for the default example,
// 177 KB for the 310-instruction quicksort -O0. 8 MiB is 45 programs of
// the larger kind or 110 of the smaller, several times what a class
// working through a handful of examples submits. It is not larger because
// a retained Program is live heap the collector marks on every cycle
// whether or not it is ever asked for again (docs/performance.md).
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
	key   programKey
	prog  *sim.Program
	bytes int
}

// programCache is the server's bounded LRU of compiled Programs: the
// requests of a class running the same few sources share one Program per
// source, so all but the first skip compiling, assembling and
// specializing (docs/architecture.md). Programs are immutable, so an
// entry handed out stays valid after its eviction; the cache only decides
// what it keeps alive itself. A nil *programCache caches nothing: every
// lookup builds.
//
// A source is stored the second time it is built, not the first: seen
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

	hits, misses, evictions uint64
}

func newProgramCache(budget int) *programCache {
	return &programCache{
		budget: budget, seed: maphash.MakeSeed(),
		byKey: make(map[programKey]*list.Element), lru: list.New(),
	}
}

// resolve returns the Program stored under key, or builds it, storing it
// if the key has missed before. Failed builds are not stored. Concurrent
// misses on one key each build; the first stored is returned to all.
func (c *programCache) resolve(key programKey, build func() (*sim.Program, error)) (*sim.Program, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*programEntry).prog, nil
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
	if slot := &c.seen[h%uint64(len(c.seen))]; *slot != h {
		*slot = h
		return p, nil
	}
	e := &programEntry{key: key, prog: p, bytes: size}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*programEntry)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evictions++
	}
	return p, nil
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
	if m.SnapshotInterval() == 0 {
		m.EnableSnapshots(0)
	}
	return m, nil
}

// programCacheStats is the cache's contribution to api.Metrics.
type programCacheStats struct {
	hits, misses, evictions uint64
	entries, bytes          int
}

func (c *programCache) stats() programCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return programCacheStats{c.hits, c.misses, c.evictions, c.lru.Len(), c.bytes}
}

func (c *programCache) resetCounters() {
	c.mu.Lock()
	c.hits, c.misses, c.evictions = 0, 0, 0
	c.mu.Unlock()
}
