package cache

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/memory"
)

// checkLines holds what Lines reports — with whatever views and fragments
// it kept from earlier calls — to a Lines rebuilt with every one of them
// dropped, and each view's spliced encoding to encoding/json's.
func checkLines(t *testing.T, where string, c *Cache) []LineView {
	t.Helper()
	got := c.Lines()
	c.views, c.lent = nil, false
	want := c.Lines()
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: line %d is reported as %s, rebuilt from scratch it is %s", where, i, got[i].enc, want[i].enc)
			}
		}
		t.Fatalf("%s: Lines differs from a rebuild", where)
	}
	for i := range got {
		oracle, err := json.Marshal(&got[i])
		if err != nil {
			t.Fatal(err)
		}
		if enc := got[i].AppendJSON(nil); !bytes.Equal(enc, oracle) {
			t.Fatalf("%s: line %d encodes as %s, encoding/json writes %s", where, i, enc, oracle)
		}
		plain := got[i]
		plain.enc = nil
		if enc := plain.AppendJSON(nil); !bytes.Equal(enc, oracle) {
			t.Fatalf("%s: line %d without its fragment encodes as %s, encoding/json writes %s", where, i, enc, oracle)
		}
	}
	return got
}

// TestLinesFollowEveryChange: after each thing that can change what a
// line displays — a store hit, a store miss with its fill, an eviction
// with write-back, a flush, a restore — Lines shows the new bytes, and
// what it returned before is left as it was.
func TestLinesFollowEveryChange(t *testing.T) {
	store := func(c *Cache, addr int, v uint64, now uint64) {
		t.Helper()
		if _, exc := c.Access(&memory.Transaction{Addr: addr, Size: 4, IsStore: true, Data: v}, now); exc != nil {
			t.Fatal(exc)
		}
	}
	load := func(c *Cache, addr int, now uint64) {
		t.Helper()
		if _, exc := c.Access(&memory.Transaction{Addr: addr, Size: 4}, now); exc != nil {
			t.Fatal(exc)
		}
	}
	for _, write := range []WritePolicy{WriteBack, WriteThrough} {
		cfg := smallCfg() // 4 sets x 2 ways x 16 B: addresses 64 apart share a set
		cfg.Write = write
		c, _ := newCache(t, cfg)
		if c.views != nil {
			t.Fatal("a new cache holds views")
		}
		load(c, 0, 0)
		store(c, 4, 0x11111111, 1)
		if c.views != nil {
			t.Fatal("a cache nobody looked at holds views")
		}
		first := checkLines(t, "first look", c)
		kept := append([]LineView(nil), first...)

		load(c, 8, 2) // a load hit changes nothing on display
		if again := c.Lines(); &again[0] != &c.views[0] || !reflect.DeepEqual(again, kept) {
			t.Error("a load hit changed the lines")
		}
		store(c, 8, 0x22222222, 3)
		checkLines(t, "store hit", c)
		store(c, 128, 0x33333333, 4)
		checkLines(t, "store miss and fill", c)
		load(c, 64, 5) // third tag of set 0: evicts the dirty line at 0
		checkLines(t, "eviction with write-back", c)
		load(c, 16, 6)
		load(c, 12, 7) // straddles nothing, refreshes LRU only
		store(c, 14, 0x4444444455555555, 8)
		checkLines(t, "store across lines", c)
		c.FlushAll(9)
		flushed := checkLines(t, "flush", c)
		for _, lv := range flushed {
			if lv.Dirty {
				t.Errorf("line %d/%d dirty after FlushAll", lv.Set, lv.Way)
			}
		}

		var snap bytes.Buffer
		w := ckpt.NewWriter(&snap)
		c.EncodeState(w)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		store(c, 200, 0x66666666, 10)
		checkLines(t, "after the snapshot", c)
		c.DecodeState(ckpt.NewReader(&snap))
		if restored := checkLines(t, "restore", c); !reflect.DeepEqual(restored, flushed) {
			t.Error("restored lines differ from the lines at the snapshot")
		}

		if !reflect.DeepEqual(first, kept) {
			t.Error("lines returned by an earlier call changed afterwards")
		}
	}
}

// TestLinesRandomized drives random traffic with a look at random moments
// under every policy.
func TestLinesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []Config{
		smallCfg(),
		{Enabled: true, Lines: 8, LineSize: 16, Associativity: 1, Replacement: FIFO, Write: WriteThrough, AccessDelay: 1},
		{Enabled: true, Lines: 16, LineSize: 32, Associativity: 4, Replacement: Random, Write: WriteBack, AccessDelay: 1},
	} {
		c, _ := newCache(t, cfg)
		for i := 0; i < 3000; i++ {
			tx := &memory.Transaction{Addr: rng.Intn(2048), Size: 1 << rng.Intn(4), IsStore: rng.Intn(3) == 0, Data: rng.Uint64()}
			if _, exc := c.Access(tx, uint64(i)); exc != nil {
				t.Fatal(exc)
			}
			switch rng.Intn(40) {
			case 0, 1, 2, 3:
				checkLines(t, "random traffic", c)
			case 4:
				c.FlushAll(uint64(i))
			}
		}
		checkLines(t, "end of traffic", c)
	}
}

func TestLinesDisabledCache(t *testing.T) {
	c, _ := newCache(t, Config{})
	c.Access(&memory.Transaction{Addr: 0, Size: 4, IsStore: true, Data: 1}, 0)
	if lines := c.Lines(); lines != nil || c.views != nil {
		t.Errorf("a disabled cache reports lines: %v", lines)
	}
}
