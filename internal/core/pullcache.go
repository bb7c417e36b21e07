package core

import (
	"container/list"
	"fmt"
	"sync"

	"hybridgraph/internal/graph"
	"hybridgraph/internal/obs"
	"hybridgraph/internal/vertexfile"
)

// pullCache models the paper's disk extension of GraphLab PowerGraph
// (Appendix F): up to capacity vertex records live in memory under LRU; while
// resident they are read and updated for free, and a dirty record pays one
// random write only when evicted. A miss pays one random read. With the
// cache larger than the per-superstep working set (Table 5's ext-edge-v3
// on small graphs) vertex I/O vanishes after warm-up; below it, cyclic
// scans defeat LRU and every access thrashes — the v2.5 cliff.
//
// Safe for concurrent use: remote gathers read through the cache while the
// owner's apply loop writes through it.
type pullCache struct {
	mu        sync.Mutex
	vs        *vertexfile.Store
	capacity  int
	ll        *list.List      // resident *pullCacheEntry, most recently used first
	slots     []*list.Element // by local index; nil while not resident
	hits      int64
	misses    int64
	evictions int64

	mHits      *obs.Counter // "pullcache.hits"
	mMisses    *obs.Counter // "pullcache.misses"
	mEvictions *obs.Counter // "pullcache.evictions"
}

type pullCacheEntry struct {
	rec   vertexfile.Record
	dirty bool
}

// newPullCache returns a cache of the given capacity in vertices;
// capacity <= 0 means unbounded (the ext-edge scenario: vertices nominally
// memory-resident), which is a capacity of the whole partition: every key
// is one of the store's vertices, so such a cache never evicts.
func newPullCache(vs *vertexfile.Store, capacity int, reg *obs.Registry) *pullCache {
	if capacity <= 0 {
		capacity = vs.Len()
	}
	return &pullCache{
		vs:         vs,
		capacity:   capacity,
		ll:         list.New(),
		slots:      make([]*list.Element, vs.Len()),
		mHits:      reg.Counter("pullcache.hits"),
		mMisses:    reg.Counter("pullcache.misses"),
		mEvictions: reg.Counter("pullcache.evictions"),
	}
}

// lookup returns v's resident entry, promoting it to most recently used,
// or nil.
func (c *pullCache) lookup(v graph.VertexID) *pullCacheEntry {
	if !c.vs.Contains(v) {
		return nil
	}
	el := c.slots[v-c.vs.Lo()]
	if el == nil {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*pullCacheEntry)
}

// insert makes a non-resident entry the most recently used; a full cache
// first evicts its least recently used record, writing it back if dirty.
func (c *pullCache) insert(e *pullCacheEntry) error {
	var err error
	if c.ll.Len() >= c.capacity {
		old := c.ll.Remove(c.ll.Back()).(*pullCacheEntry)
		c.slots[old.rec.ID-c.vs.Lo()] = nil
		if old.dirty {
			c.evictions++
			c.mEvictions.Inc()
			err = c.vs.WriteRecord(old.rec)
		}
	}
	c.slots[e.rec.ID-c.vs.Lo()] = c.ll.PushFront(e)
	return err
}

// get reads a record through the cache; a miss random-reads it from disk
// and may evict a dirty resident record (random write).
func (c *pullCache) get(v graph.VertexID) (vertexfile.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.lookup(v); e != nil {
		c.hits++
		c.mHits.Inc()
		return e.rec, nil
	}
	c.misses++
	c.mMisses.Inc()
	rec, err := c.vs.ReadRecord(v)
	if err != nil {
		return rec, err
	}
	return rec, c.insert(&pullCacheEntry{rec: rec})
}

// put writes a record through the cache: resident records update in place
// (dirty, no I/O), absent ones are inserted dirty and pay only on
// eviction.
func (c *pullCache) put(rec vertexfile.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.vs.Contains(rec.ID) {
		return fmt.Errorf("pullcache: vertex %d is not in this partition", rec.ID)
	}
	if e := c.lookup(rec.ID); e != nil {
		e.rec = rec
		e.dirty = true
		return nil
	}
	c.misses++
	c.mMisses.Inc()
	return c.insert(&pullCacheEntry{rec: rec, dirty: true})
}

// readBcast reads one broadcast column through the cache (the gather-side
// svertex access).
func (c *pullCache) readBcast(v graph.VertexID, parity int) (float64, error) {
	rec, err := c.get(v)
	if err != nil {
		return 0, err
	}
	return rec.Bcast[parity&1], nil
}

// flush writes every dirty resident record back in ascending vertex order,
// leaving the store authoritative (run at job end before values are
// collected, and inside a checkpoint's I/O window, whose page-granular
// device bytes depend on the order of the writes).
func (c *pullCache) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.slots {
		if el == nil {
			continue
		}
		if e := el.Value.(*pullCacheEntry); e.dirty {
			if err := c.vs.WriteRecord(e.rec); err != nil {
				return err
			}
			e.dirty = false
		}
	}
	return nil
}

// stats reports hits, misses and dirty evictions.
func (c *pullCache) stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// resident reports the number of cached records, for memory accounting.
func (c *pullCache) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
