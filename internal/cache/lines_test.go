package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"riscvsim/internal/ckpt"
	"riscvsim/internal/memory"
)

// checkLines holds what Lines reports — with whatever views and fragments
// it kept from earlier calls — to a Lines rebuilt with every one of them
// dropped, each view's spliced encoding to encoding/json's, and the list
// to the valid lines in set-major order.
func checkLines(t *testing.T, where string, c *Cache) []LineView {
	t.Helper()
	got := c.Lines()
	c.views, c.indexed, c.lent = nil, false, false
	want := c.Lines()
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: line %d is reported as %s, rebuilt from scratch it is %s", where, i, got[i].enc, want[i].enc)
			}
		}
		t.Fatalf("%s: Lines differs from a rebuild", where)
	}
	checkValidOnly(t, where, c, got)
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

// checkValidOnly: lines lists exactly the valid lines of c, each once, in
// set-major order, each with its line's data.
func checkValidOnly(t *testing.T, where string, c *Cache, lines []LineView) {
	t.Helper()
	k := 0
	for i := range c.lines {
		if !c.lines[i].valid {
			continue
		}
		si, w := i/c.cfg.Associativity, i%c.cfg.Associativity
		if k >= len(lines) {
			t.Fatalf("%s: line %d/%d is valid and not listed", where, si, w)
		}
		if lv := lines[k]; lv.Set != si || lv.Way != w || !lv.Valid || !bytes.Equal(lv.Data, c.lineData(si, w)) {
			t.Fatalf("%s: entry %d is line %d/%d (valid=%v), want valid line %d/%d with its data", where, k, lv.Set, lv.Way, lv.Valid, si, w)
		}
		k++
	}
	if k != len(lines) {
		t.Fatalf("%s: %d lines listed, %d are valid", where, len(lines), k)
	}
}

// TestLinesColdCache: a cache nothing has been loaded into lists no line
// and builds nothing.
func TestLinesColdCache(t *testing.T) {
	c, _ := newCache(t, DefaultConfig())
	if allocs := testing.AllocsPerRun(10, func() {
		if lines := c.Lines(); lines != nil {
			t.Fatalf("a cold cache lists %d lines", len(lines))
		}
	}); allocs != 0 {
		t.Errorf("Lines on a cold cache allocates %v objects, want 0", allocs)
	}
	if c.views != nil {
		t.Error("a cold cache holds views")
	}
}

// TestLinesListsEveryFill: after k fills in scattered order, Lines lists
// exactly k lines, in set-major order, and a fill encodes only the line
// it added: every line listed before keeps its fragment.
func TestLinesListsEveryFill(t *testing.T) {
	cfg := Config{Enabled: true, Lines: 32, LineSize: 16, Associativity: 2, Replacement: LRU, Write: WriteBack, AccessDelay: 1}
	c, _ := newCache(t, cfg)
	// Two tags for each of the 16 sets, in an order that lands neither
	// set-major nor way-major.
	var blocks []int
	for b := 0; b < 32; b++ {
		blocks = append(blocks, (b*13)%32)
	}
	var before []LineView
	for k, b := range blocks {
		if _, exc := c.Access(&memory.Transaction{Addr: b * cfg.LineSize, Size: 4}, uint64(k)); exc != nil {
			t.Fatal(exc)
		}
		lines := c.Lines()
		if len(lines) != k+1 {
			t.Fatalf("after %d fills Lines lists %d lines", k+1, len(lines))
		}
		kept := 0
		for _, lv := range lines {
			if kept < len(before) && before[kept].Set == lv.Set && before[kept].Way == lv.Way {
				if &lv.enc[0] != &before[kept].enc[0] {
					t.Fatalf("after %d fills line %d/%d, listed before, was encoded again", k+1, lv.Set, lv.Way)
				}
				kept++
			}
		}
		if kept != len(before) {
			t.Fatalf("after %d fills %d of the %d lines listed before are listed", k+1, kept, len(before))
		}
		before = lines
		for i := 1; i < len(lines); i++ {
			if prev, lv := lines[i-1], lines[i]; lv.Set < prev.Set || lv.Set == prev.Set && lv.Way <= prev.Way {
				t.Fatalf("after %d fills entry %d is %d/%d, after %d/%d", k+1, i, lv.Set, lv.Way, prev.Set, prev.Way)
			}
		}
		checkValidOnly(t, fmt.Sprintf("after %d fills", k+1), c, lines)
	}
}

// TestLinesStoreReencodesOneLine: a store to a listed line copies the
// listed entries, not one per line of the cache, and encodes that line
// alone again; every other entry keeps the fragment it had.
func TestLinesStoreReencodesOneLine(t *testing.T) {
	c, _ := newCache(t, DefaultConfig())
	for _, addr := range []int{0, 4096, 640, 8192, 96} {
		if _, exc := c.Access(&memory.Transaction{Addr: addr, Size: 4}, 0); exc != nil {
			t.Fatal(exc)
		}
	}
	before := c.Lines()
	kept := append([]LineView(nil), before...)
	if _, exc := c.Access(&memory.Transaction{Addr: 644, Size: 4, IsStore: true, Data: 0xABCD}, 1); exc != nil {
		t.Fatal(exc)
	}
	after := c.Lines()
	if len(after) != len(before) || cap(after) >= c.cfg.Lines {
		t.Fatalf("after the store Lines lists %d entries with room for %d, want the %d listed before", len(after), cap(after), len(before))
	}
	si := 644 / c.cfg.LineSize % c.numSets
	rebuilt := 0
	for i := range after {
		if &after[i].enc[0] == &before[i].enc[0] {
			continue
		}
		rebuilt++
		if after[i].Set != si || !after[i].Dirty {
			t.Errorf("line %d/%d was encoded again; only the stored line should be", after[i].Set, after[i].Way)
		}
	}
	if rebuilt != 1 {
		t.Errorf("%d lines encoded again after one store, want 1", rebuilt)
	}
	if !reflect.DeepEqual(before, kept) {
		t.Error("the store wrote the lines Lines returned before it")
	}
	checkLines(t, "after the store", c)
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
