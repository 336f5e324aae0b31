package cache

import (
	"testing"
	"testing/quick"

	"riscvsim/internal/memory"
)

func newBacking() *memory.Main {
	return memory.New(memory.Config{Size: 64 * 1024, LoadLatency: 10, StoreLatency: 10, CallStackSize: 0})
}

func newCache(t *testing.T, cfg Config) (*Cache, *memory.Main) {
	t.Helper()
	m := newBacking()
	return New(cfg, m, new(Stats)), m
}

// hits accesses tx at now and reports whether every line it touched hit,
// as the cache's own statistics count it.
func hits(t *testing.T, c *Cache, tx *memory.Transaction, now uint64) bool {
	t.Helper()
	misses := c.stats.Misses
	if _, exc := c.Access(tx, now); exc != nil {
		t.Fatal(exc)
	}
	return c.stats.Misses == misses
}

func smallCfg() Config {
	return Config{
		Enabled: true, Lines: 8, LineSize: 16, Associativity: 2,
		Replacement: LRU, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 5,
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := newCache(t, smallCfg())
	if hits(t, c, &memory.Transaction{Addr: 100, Size: 4, IsStore: true, Data: 0xCAFEBABE}, 0) {
		t.Error("first access must miss")
	}
	rd := &memory.Transaction{Addr: 100, Size: 4}
	if !hits(t, c, rd, 10) {
		t.Error("second access must hit")
	}
	if rd.Data != 0xCAFEBABE {
		t.Errorf("read %#x, want 0xCAFEBABE", rd.Data)
	}
	st := *c.stats
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestHitIsFasterThanMiss(t *testing.T) {
	c, _ := newCache(t, smallCfg())
	miss := &memory.Transaction{Addr: 0, Size: 4}
	missFinish, _ := c.Access(miss, 0)
	hit := &memory.Transaction{Addr: 0, Size: 4}
	hitFinish, _ := c.Access(hit, 100)
	if hitFinish-100 >= missFinish-0 {
		t.Errorf("hit latency %d should be less than miss latency %d",
			hitFinish-100, missFinish)
	}
	if hitFinish-100 != uint64(c.Config().AccessDelay) {
		t.Errorf("hit latency = %d, want AccessDelay=%d", hitFinish-100, c.Config().AccessDelay)
	}
}

func TestWriteBackDefersMemoryWrite(t *testing.T) {
	c, m := newCache(t, smallCfg())
	tx := &memory.Transaction{Addr: 200, Size: 4, IsStore: true, Data: 42}
	c.Access(tx, 0)
	// Memory must still hold zero: the store is buffered in the cache.
	v, _ := m.ReadRaw(200, 4)
	if v != 0 {
		t.Errorf("write-back store leaked to memory: %d", v)
	}
	c.FlushAll(10)
	v, _ = m.ReadRaw(200, 4)
	if v != 42 {
		t.Errorf("after flush memory = %d, want 42", v)
	}
}

func TestWriteThroughWritesMemoryImmediately(t *testing.T) {
	cfg := smallCfg()
	cfg.Write = WriteThrough
	c, m := newCache(t, cfg)
	tx := &memory.Transaction{Addr: 200, Size: 4, IsStore: true, Data: 42}
	c.Access(tx, 0)
	v, _ := m.ReadRaw(200, 4)
	if v != 42 {
		t.Errorf("write-through store not in memory: %d", v)
	}
}

func TestWriteThroughNoAllocateOnStoreMiss(t *testing.T) {
	cfg := smallCfg()
	cfg.Write = WriteThrough
	c, _ := newCache(t, cfg)
	c.Access(&memory.Transaction{Addr: 300, Size: 4, IsStore: true, Data: 7}, 0)
	rd := &memory.Transaction{Addr: 300, Size: 4}
	if hits(t, c, rd, 1) {
		t.Error("store miss must not allocate a line under write-through")
	}
	if rd.Data != 7 {
		t.Errorf("read %d, want 7", rd.Data)
	}
}

func TestEvictionWritesBackDirtyLine(t *testing.T) {
	// Direct-mapped, 2 lines of 16 B: addresses 0 and 32 conflict.
	cfg := Config{
		Enabled: true, Lines: 2, LineSize: 16, Associativity: 1,
		Replacement: LRU, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 2,
	}
	c, m := newCache(t, cfg)
	c.Access(&memory.Transaction{Addr: 0, Size: 4, IsStore: true, Data: 11}, 0)
	// Evict line 0 by touching the conflicting address 32.
	c.Access(&memory.Transaction{Addr: 32, Size: 4}, 1)
	v, _ := m.ReadRaw(0, 4)
	if v != 11 {
		t.Errorf("dirty line not written back on eviction: memory=%d, want 11", v)
	}
	if c.stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.stats.Writebacks)
	}
}

// TestEveryTransferGoesThroughTheDoor: fills, dirty-victim writebacks,
// flushes and write-through stores are transactions main memory times and
// counts, so a miss costs the cache's own delays plus what memory takes,
// and memory's counters see every line.
func TestEveryTransferGoesThroughTheDoor(t *testing.T) {
	type step struct {
		tx     memory.Transaction
		now    uint64
		finish uint64
		mem    memory.Stats // memory's counters after the step
	}
	cases := []struct {
		name  string
		write WritePolicy
		steps []step
		flush uint64 // FlushAll(100) finishes here
		after memory.Stats
	}{
		{"write-back", WriteBack, []step{
			// A clean fill: AccessDelay 1 + ReplacementDelay 2 + LoadLatency 10.
			{memory.Transaction{Addr: 0, Size: 4, IsStore: true, Data: 1}, 0, 13, memory.Stats{Reads: 1, BytesRead: 16}},
			// A dirty victim goes first: 1 + 2 + StoreLatency 7 + 10.
			{memory.Transaction{Addr: 32, Size: 4}, 20, 40, memory.Stats{Reads: 2, Writes: 1, BytesRead: 32, BytesWritten: 16}},
			{memory.Transaction{Addr: 48, Size: 4, IsStore: true, Data: 2}, 50, 63, memory.Stats{Reads: 3, Writes: 1, BytesRead: 48, BytesWritten: 16}},
			{memory.Transaction{Addr: 32, Size: 4, IsStore: true, Data: 3}, 60, 61, memory.Stats{Reads: 3, Writes: 1, BytesRead: 48, BytesWritten: 16}},
		}, 114, memory.Stats{Reads: 3, Writes: 3, BytesRead: 48, BytesWritten: 48}},
		{"write-through", WriteThrough, []step{
			// A store miss allocates nothing and leaves after the lookup: 1 + 7.
			{memory.Transaction{Addr: 0, Size: 4, IsStore: true, Data: 1}, 0, 8, memory.Stats{Writes: 1, BytesWritten: 4}},
			{memory.Transaction{Addr: 0, Size: 4}, 10, 23, memory.Stats{Reads: 1, Writes: 1, BytesRead: 16, BytesWritten: 4}},
			// A store hit overlaps the lookup with the write: max(1, 7).
			{memory.Transaction{Addr: 4, Size: 2, IsStore: true, Data: 2}, 30, 37, memory.Stats{Reads: 1, Writes: 2, BytesRead: 16, BytesWritten: 6}},
		}, 100, memory.Stats{Reads: 1, Writes: 2, BytesRead: 16, BytesWritten: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := memory.New(memory.Config{Size: 4096, LoadLatency: 10, StoreLatency: 7})
			var mem memory.Stats
			m.CountInto(&mem)
			c := New(Config{
				Enabled: true, Lines: 2, LineSize: 16, Associativity: 1,
				Replacement: LRU, Write: tc.write, AccessDelay: 1, ReplacementDelay: 2,
			}, m, new(Stats))
			for i, st := range tc.steps {
				finish, exc := c.Access(&st.tx, st.now)
				if exc != nil {
					t.Fatal(exc)
				}
				if finish != st.finish || mem != st.mem {
					t.Errorf("step %d: finish %d, memory %+v; want %d, %+v", i, finish, mem, st.finish, st.mem)
				}
			}
			if finish := c.FlushAll(100); finish != tc.flush || mem != tc.after {
				t.Errorf("flush: finish %d, memory %+v; want %d, %+v", finish, mem, tc.flush, tc.after)
			}
			if tc.write == WriteBack && c.stats.Writebacks != mem.Writes {
				t.Errorf("writebacks %d, memory writes %d", c.stats.Writebacks, mem.Writes)
			}
		})
	}
}

func TestLRUReplacement(t *testing.T) {
	// One set, 2 ways, 16 B lines: conflicting addresses 0, 16, 32.
	cfg := Config{
		Enabled: true, Lines: 2, LineSize: 16, Associativity: 2,
		Replacement: LRU, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 2,
	}
	c, _ := newCache(t, cfg)
	c.Access(&memory.Transaction{Addr: 0, Size: 4}, 0)  // miss, fill way0
	c.Access(&memory.Transaction{Addr: 16, Size: 4}, 1) // miss, fill way1
	c.Access(&memory.Transaction{Addr: 0, Size: 4}, 2)  // hit (0 is now MRU)
	c.Access(&memory.Transaction{Addr: 32, Size: 4}, 3) // evicts 16 (LRU)
	if !hits(t, c, &memory.Transaction{Addr: 0, Size: 4}, 4) {
		t.Error("LRU should have kept address 0")
	}
	if hits(t, c, &memory.Transaction{Addr: 16, Size: 4}, 5) {
		t.Error("LRU should have evicted address 16")
	}
}

func TestFIFOReplacement(t *testing.T) {
	cfg := Config{
		Enabled: true, Lines: 2, LineSize: 16, Associativity: 2,
		Replacement: FIFO, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 2,
	}
	c, _ := newCache(t, cfg)
	c.Access(&memory.Transaction{Addr: 0, Size: 4}, 0)  // fill way0 (first in)
	c.Access(&memory.Transaction{Addr: 16, Size: 4}, 1) // fill way1
	c.Access(&memory.Transaction{Addr: 0, Size: 4}, 2)  // hit; FIFO ignores recency
	c.Access(&memory.Transaction{Addr: 32, Size: 4}, 3) // evicts 0 (first in)
	if hits(t, c, &memory.Transaction{Addr: 0, Size: 4}, 4) {
		t.Error("FIFO should have evicted address 0 despite its recent use")
	}
}

func TestRandomReplacementIsDeterministic(t *testing.T) {
	run := func() []uint64 {
		cfg := Config{
			Enabled: true, Lines: 4, LineSize: 16, Associativity: 4,
			Replacement: Random, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 2,
		}
		m := newBacking()
		c := New(cfg, m, new(Stats))
		var hits []uint64
		for i := 0; i < 50; i++ {
			addr := (i * 37 % 16) * 16
			c.Access(&memory.Transaction{Addr: addr, Size: 4}, uint64(i))
			hits = append(hits, c.stats.Hits)
		}
		return hits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Random replacement diverged at access %d: %d != %d (must be deterministic for backward simulation)", i, a[i], b[i])
		}
	}
}

func TestLineCrossingAccess(t *testing.T) {
	c, _ := newCache(t, smallCfg())
	// 4-byte store at 14 spans lines [0,16) and [16,32).
	c.Access(&memory.Transaction{Addr: 14, Size: 4, IsStore: true, Data: 0xAABBCCDD}, 0)
	rd := &memory.Transaction{Addr: 14, Size: 4}
	c.Access(rd, 1)
	if rd.Data != 0xAABBCCDD {
		t.Errorf("line-crossing read = %#x, want 0xAABBCCDD", rd.Data)
	}
}

func TestDisabledCachePassesThrough(t *testing.T) {
	m := newBacking()
	c := New(Config{Enabled: false}, m, new(Stats))
	tx := &memory.Transaction{Addr: 100, Size: 4, IsStore: true, Data: 5}
	finish, exc := c.Access(tx, 0)
	if exc != nil {
		t.Fatal(exc)
	}
	if finish != uint64(m.Config().StoreLatency) {
		t.Errorf("disabled cache latency = %d, want memory latency %d", finish, m.Config().StoreLatency)
	}
	v, _ := m.ReadRaw(100, 4)
	if v != 5 {
		t.Error("disabled cache must write memory directly")
	}
}

func TestOutOfRangeAccessFaults(t *testing.T) {
	c, _ := newCache(t, smallCfg())
	if _, exc := c.Access(&memory.Transaction{Addr: -4, Size: 4}, 0); exc == nil {
		t.Error("negative address must fault")
	}
	if _, exc := c.Access(&memory.Transaction{Addr: 1 << 30, Size: 4}, 0); exc == nil {
		t.Error("address beyond memory must fault")
	}
}

func TestLinesView(t *testing.T) {
	c, _ := newCache(t, smallCfg())
	c.Access(&memory.Transaction{Addr: 0, Size: 4, IsStore: true, Data: 1}, 0)
	views := c.Lines()
	if len(views) != 1 {
		t.Fatalf("Lines() returned %d views, want the 1 valid line", len(views))
	}
	if v := views[0]; !v.Valid || v.Addr%16 != 0 {
		t.Errorf("line valid=%v at address %d, want a valid line-aligned one", v.Valid, v.Addr)
	}
}

// Property: reading through the cache always returns what was last written
// through the cache, regardless of the policy mix and geometry.
func TestPropertyCacheCoherentWithItself(t *testing.T) {
	type op struct {
		Addr uint16
		Val  uint32
	}
	f := func(ops []op, assocSel, polSel uint8) bool {
		assoc := []int{1, 2, 4}[assocSel%3]
		pol := ReplacementPolicy(polSel % 3)
		m := newBacking()
		c := New(Config{
			Enabled: true, Lines: 8, LineSize: 16, Associativity: assoc,
			Replacement: pol, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 3,
		}, m, new(Stats))
		shadow := map[int]uint32{}
		now := uint64(0)
		for _, o := range ops {
			addr := int(o.Addr) % (64*1024 - 4)
			addr &^= 3
			st := &memory.Transaction{Addr: addr, Size: 4, IsStore: true, Data: uint64(o.Val)}
			if _, exc := c.Access(st, now); exc != nil {
				return false
			}
			shadow[addr] = o.Val
			now++
		}
		for addr, want := range shadow {
			rd := &memory.Transaction{Addr: addr, Size: 4}
			if _, exc := c.Access(rd, now); exc != nil {
				return false
			}
			if uint32(rd.Data) != want {
				return false
			}
			now++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: after FlushAll, memory agrees with every value written through
// a write-back cache.
func TestPropertyFlushMakesMemoryCoherent(t *testing.T) {
	f := func(addrs []uint16, val uint32) bool {
		m := newBacking()
		c := New(smallCfgQuick(), m, new(Stats))
		shadow := map[int]uint32{}
		for i, a := range addrs {
			addr := (int(a) % (64*1024 - 4)) &^ 3
			v := val + uint32(i)
			c.Access(&memory.Transaction{Addr: addr, Size: 4, IsStore: true, Data: uint64(v)}, uint64(i))
			shadow[addr] = v
		}
		c.FlushAll(uint64(len(addrs)))
		for addr, want := range shadow {
			got, exc := m.ReadRaw(addr, 4)
			if exc != nil || got != uint64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func smallCfgQuick() Config {
	return Config{
		Enabled: true, Lines: 8, LineSize: 16, Associativity: 2,
		Replacement: LRU, Write: WriteBack, AccessDelay: 1, ReplacementDelay: 5,
	}
}
