package decomp

import (
	"fmt"
	"testing"

	"d2cq/internal/hypergraph"
)

func cacheHG(t testing.TB, n int) *hypergraph.Hypergraph {
	t.Helper()
	src := ""
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("e%d: v%d v%d\n", i, i, i+1)
	}
	h, err := hypergraph.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCacheKeyDistinguishesStructure(t *testing.T) {
	a := cacheHG(t, 3)
	b := cacheHG(t, 3)
	if CacheKey(a) != CacheKey(b) {
		t.Error("identical structures must share a key")
	}
	c := cacheHG(t, 4)
	if CacheKey(a) == CacheKey(c) {
		t.Error("different structures must not collide")
	}
	// Renaming vertices preserves the id structure, hence the key: the GHD
	// refers to ids only, so the cached plan is reusable.
	d, err := hypergraph.ParseString("e0: a b\ne1: b c\ne2: c d\n")
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(a) != CacheKey(d) {
		t.Error("renamed-but-isomorphic id structure should share a key")
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	keys := []string{"k1", "k2", "k3"}
	ds := []*GHD{{}, {}, {}}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("empty cache cannot hit")
	}
	c.Put(keys[0], ds[0])
	c.Put(keys[1], ds[1])
	if got, ok := c.Get(keys[0]); !ok || got != ds[0] {
		t.Fatal("expected hit on k1")
	}
	// k1 is now most recently used; inserting k3 must evict k2.
	c.Put(keys[2], ds[2])
	if _, ok := c.Get(keys[1]); ok {
		t.Error("k2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("k1 should have survived eviction")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Error("k3 should be present")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Len != 2 || st.Capacity != 2 {
		t.Errorf("len/cap = %d/%d, want 2/2", st.Len, st.Capacity)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
}

func TestCacheZeroCapacityDisables(t *testing.T) {
	c := NewCache(0)
	c.Put("k", &GHD{})
	if _, ok := c.Get("k"); ok {
		t.Error("zero-capacity cache must not store")
	}
	if c.Len() != 0 {
		t.Error("zero-capacity cache must stay empty")
	}
}

func TestCachePeekCountsNothing(t *testing.T) {
	c := NewCache(2)
	d := &GHD{}
	if _, ok := c.Peek("k1"); ok {
		t.Fatal("empty cache cannot hold k1")
	}
	c.Put("k1", d)
	c.Put("k2", &GHD{})
	if got, ok := c.Peek("k1"); !ok || got != d {
		t.Fatal("Peek should find k1")
	}
	// Peek does not mark k1 used: k1 is still the least recently used and
	// goes first.
	c.Put("k3", &GHD{})
	if _, ok := c.Peek("k1"); ok {
		t.Error("k1 should have been evicted (Peek must not refresh it)")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("hits/misses = %d/%d after Peeks only, want 0/0", st.Hits, st.Misses)
	}
}
