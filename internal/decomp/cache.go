package decomp

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"d2cq/internal/hypergraph"
)

// CacheKey returns an exact structural key for h: the vertex count followed
// by every edge's vertex set in edge-id order. Two hypergraphs with equal
// keys have identical vertex-id/edge-id structure, and a GHD references
// vertices and edges by id only, so a decomposition computed for one is
// valid for the other. (Unlike hypergraph.CanonicalKey this is not an
// isomorphism invariant — it is a collision-free identity for plan reuse.)
func CacheKey(h *hypergraph.Hypergraph) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(h.NV()))
	for e := 0; e < h.NE(); e++ {
		b.WriteByte('|')
		b.WriteString(h.EdgeSet(e).Key())
	}
	return b.String()
}

// CacheStats is a snapshot of cache traffic.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// Cache is a bounded, concurrency-safe LRU cache of decompositions keyed by
// CacheKey. Cached GHDs are shared between callers and must be treated as
// immutable; a nil one is stored like any other (the engine records a shape
// refused under its width bound so). The zero capacity disables caching
// (every Get misses).
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key string
	d   *GHD
}

// NewCache returns a cache holding at most capacity decompositions.
func NewCache(capacity int) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the cached decomposition for key, marking it most recently
// used.
func (c *Cache) Get(key string) (*GHD, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).d, true
	}
	c.misses++
	return nil, false
}

// Peek returns the cached decomposition for key without counting a hit or a
// miss and without marking it used: a second look by a caller whose Get has
// counted already.
func (c *Cache) Peek(key string) (*GHD, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry).d, true
	}
	return nil, false
}

// Put stores a decomposition, evicting the least recently used entry when
// the cache is full. The caller must not mutate d afterwards.
func (c *Cache) Put(key string, d *GHD) {
	if c == nil || c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).d = d
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, d: d})
}

// Len returns the number of cached decompositions.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.ll.Len(),
		Capacity:  c.capacity,
	}
}
