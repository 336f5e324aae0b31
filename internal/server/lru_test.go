package server

import (
	"slices"
	"testing"
)

// checkLRU holds the invariants of c after an operation: the charges of
// its entries sum to its size, which is within the budget, the map and
// the recency list hold the same entries, and the list runs from the
// most recently used key to the least as want does.
func checkLRU(t *testing.T, c *lru[string, int], want ...string) {
	t.Helper()
	var keys []string
	total := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[string, int])
		if c.byKey[e.key] != el {
			t.Errorf("entry %q is not the map's", e.key)
		}
		keys = append(keys, e.key)
		total += e.size
	}
	if total != c.size || c.size > c.budget {
		t.Errorf("entries charged %d, size %d, budget %d", total, c.size, c.budget)
	}
	if len(c.byKey) != c.len() || !slices.Equal(keys, want) {
		t.Errorf("recency order %q (%d in the map), want %q", keys, len(c.byKey), want)
	}
}

func TestLRU(t *testing.T) {
	c := newLRU[string, int](10)
	add := func(k string, v, size int, evicted ...int) {
		t.Helper()
		if got := c.add(k, v, size); !slices.Equal(got, evicted) {
			t.Errorf("add(%q, %d): evicted %v, want %v", k, size, got, evicted)
		}
	}
	if _, _, ok := c.oldest(); ok {
		t.Error("an empty lru has an oldest entry")
	}
	add("a", 1, 3)
	add("b", 2, 3)
	add("c", 3, 3)
	checkLRU(t, c, "c", "b", "a")

	if v, ok := c.get("a"); !ok || v != 1 {
		t.Errorf("get(a) = %d, %v", v, ok)
	}
	checkLRU(t, c, "a", "c", "b")
	if _, ok := c.get("z"); ok {
		t.Error("get of an absent key found it")
	}
	checkLRU(t, c, "a", "c", "b")

	// An existing key keeps its value and charge, and its place.
	add("c", 30, 1)
	checkLRU(t, c, "a", "c", "b")
	if v, _ := c.get("c"); v != 3 || c.size != 9 {
		t.Errorf("re-added key holds %d with the lru at %d bytes, want 3 and 9", v, c.size)
	}
	checkLRU(t, c, "c", "a", "b")

	// An entry larger than the whole budget is refused and evicts nothing.
	add("big", 4, 11)
	checkLRU(t, c, "c", "a", "b")

	// Room is made from the least recently used end.
	add("d", 4, 5, 2, 1)
	checkLRU(t, c, "d", "c")
	add("e", 5, 10, 3, 4)
	checkLRU(t, c, "e")
	add("f", 6, 0)
	checkLRU(t, c, "f", "e")

	if k, v, ok := c.oldest(); !ok || k != "e" || v != 5 {
		t.Errorf("oldest = %q, %d, %v; want e, 5", k, v, ok)
	}
	checkLRU(t, c, "f", "e") // oldest does not mark the entry
	if !c.remove("e") {
		t.Error("remove(e) found nothing")
	}
	checkLRU(t, c, "f")
	if c.remove("e") {
		t.Error("a removed key was removed again")
	}
	if k, _, _ := c.oldest(); k != "f" {
		t.Errorf("oldest after remove = %q, want f", k)
	}
	c.remove("f")
	checkLRU(t, c)
	if _, _, ok := c.oldest(); ok || c.len() != 0 {
		t.Error("an emptied lru has an oldest entry")
	}
}
