package server

import "container/list"

// lru is the server's one recency-ordered, budgeted map: the program
// cache's Programs and memoized replies and the session table are its
// users. Every entry is charged a size against the budget, and adding an
// entry evicts the least recently used ones until the charges fit. It is
// not synchronised: each user guards its lru with its own mutex.
type lru[K comparable, V any] struct {
	budget, size int
	byKey        map[K]*list.Element
	order        *list.List // of *lruEntry[K, V]; front = most recent
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

func newLRU[K comparable, V any](budget int) *lru[K, V] {
	return &lru[K, V]{budget: budget, byKey: make(map[K]*list.Element), order: list.New()}
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (v V, ok bool) {
	el, ok := c.byKey[k]
	if !ok {
		return v, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// add stores v under k, charged size, as the most recently used entry,
// and returns the values it evicted to make room, least recent first. An
// entry already under k is kept as it is, and an entry larger than the
// whole budget is refused; neither evicts anything.
func (c *lru[K, V]) add(k K, v V, size int) (evicted []V) {
	if _, ok := c.byKey[k]; ok || size > c.budget {
		return nil
	}
	for c.size+size > c.budget {
		evicted = append(evicted, c.removeElement(c.order.Back()).val)
	}
	c.byKey[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
	c.size += size
	return evicted
}

// remove drops the entry under k, reporting whether there was one.
func (c *lru[K, V]) remove(k K) bool {
	el, ok := c.byKey[k]
	if ok {
		c.removeElement(el)
	}
	return ok
}

// oldest returns the least recently used entry without marking it.
func (c *lru[K, V]) oldest() (k K, v V, ok bool) {
	el := c.order.Back()
	if el == nil {
		return k, v, false
	}
	e := el.Value.(*lruEntry[K, V])
	return e.key, e.val, true
}

func (c *lru[K, V]) len() int { return c.order.Len() }

func (c *lru[K, V]) removeElement(el *list.Element) *lruEntry[K, V] {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.byKey, e.key)
	c.size -= e.size
	return e
}
