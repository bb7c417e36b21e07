// Package lru implements the least-recently-used vertex cache used by the
// pull baseline. The paper modifies GraphLab PowerGraph to keep a bounded
// number of vertices in memory under an LRU replacement strategy (Section
// 6, "The LRU replacing strategy is used to manage vertices in GraphLab
// PowerGraph"); cache misses become the random vertex reads that dominate
// pull's I/O cost in Fig. 10.
package lru

import "container/list"

// Cache is a fixed-capacity LRU map from uint32 keys to arbitrary values.
// Not safe for concurrent use; callers guard it.
type Cache struct {
	cap       int
	ll        *list.List
	items     map[uint32]*list.Element
	hits      int64
	misses    int64
	evictions int64
	onEvict   func(key uint32, val any)
}

// SetOnEvict installs a callback invoked for each evicted entry — the
// pull baseline uses it to write dirty vertex records back to disk.
func (c *Cache) SetOnEvict(fn func(key uint32, val any)) { c.onEvict = fn }

type entry struct {
	key uint32
	val any
}

// New returns a cache holding at most capacity entries. A capacity <= 0
// yields a cache that stores nothing (every lookup misses), which models
// the paper's fully disk-resident configurations.
func New(capacity int) *Cache {
	return &Cache{cap: capacity, ll: list.New(), items: make(map[uint32]*list.Element)}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int { return len(c.items) }

// Get looks a key up, promoting it to most-recently-used on a hit.
func (c *Cache) Get(key uint32) (any, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// Put inserts or updates a key, evicting the least-recently-used entry if
// the cache is full.
func (c *Cache) Put(key uint32, val any) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	if len(c.items) >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			e := oldest.Value.(*entry)
			c.ll.Remove(oldest)
			delete(c.items, e.key)
			c.evictions++
			if c.onEvict != nil {
				c.onEvict(e.key, e.val)
			}
		}
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
}

// Each calls fn for every cached entry, most- to least-recently used.
func (c *Cache) Each(fn func(key uint32, val any)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		fn(e.key, e.val)
	}
}

// Stats reports hits, misses and evictions since creation.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}
