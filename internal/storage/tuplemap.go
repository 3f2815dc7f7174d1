package storage

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// HashTuple returns the FNV-1a 64-bit hash of a value tuple.
func HashTuple(vals []Value) uint64 {
	h := fnv64Offset
	for _, v := range vals {
		u := uint32(v)
		h = (h ^ uint64(u&0xff)) * fnv64Prime
		h = (h ^ uint64((u>>8)&0xff)) * fnv64Prime
		h = (h ^ uint64((u>>16)&0xff)) * fnv64Prime
		h = (h ^ uint64(u>>24)) * fnv64Prime
	}
	return h
}

// mapHash is TupleMap's hash: FNV-1a a value rather than a byte at a time,
// then mixed as pmapHash mixes, so that the low bits the probe table uses
// depend on every input bit (FNV-1a's own low bits depend only on the
// inputs' low bits). The map keeps its entries in insertion order, so the
// hash decides no order anyone sees.
func mapHash(vals []Value) uint64 {
	h := fnv64Offset
	for _, v := range vals {
		h = (h ^ uint64(uint32(v))) * fnv64Prime
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// TupleMap is a hash map from fixed-width value tuples to int64 payloads,
// with exact collision handling: tuples are stored flat and compared on
// every probe, so two distinct tuples never share a slot even when their
// 64-bit hashes collide. It serves every from-scratch grouping path (dedup,
// projection, join and semijoin keys, the counting DP's messages) and the
// transient work sets of incremental maintenance; state that must outlive a snapshot and be patched lives in the
// persistent PMap instead. The layout is open-addressing over flat slices —
// no per-bucket allocations, entries in insertion order.
type TupleMap struct {
	k     int
	hash  func([]Value) uint64 // nil: mapHash
	table []int32              // open-addressing probe table: slot+1, 0 = empty
	mask  uint64
	keys  []Value // slot i occupies keys[i*k : (i+1)*k]
	vals  []int64
}

// minTableSize keeps the probe table a power of two.
const minTableSize = 8

// tableSize returns the probe-table size that holds n entries below 3/4
// load.
func tableSize(n int) int {
	size := minTableSize
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// NewTupleMap returns an empty map over width-k tuples, sized for capHint
// entries.
func NewTupleMap(k, capHint int) *TupleMap {
	capHint = max(capHint, 0)
	size := tableSize(capHint)
	return &TupleMap{
		k:     k,
		table: make([]int32, size),
		mask:  uint64(size - 1),
		keys:  make([]Value, 0, capHint*k),
		vals:  make([]int64, 0, capHint),
	}
}

// newTupleMapWithHash is the test seam for the collision path: a degenerate
// hash forces every tuple onto one probe sequence, exercising the exact
// comparison.
func newTupleMapWithHash(k int, hash func([]Value) uint64) *TupleMap {
	m := NewTupleMap(k, 0)
	m.hash = hash
	return m
}

// Len returns the number of distinct tuples inserted.
func (m *TupleMap) Len() int { return len(m.vals) }

// Key returns the tuple stored at a slot (do not mutate).
func (m *TupleMap) Key(slot int32) []Value {
	return m.keys[int(slot)*m.k : (int(slot)+1)*m.k]
}

// Keys returns every stored tuple laid out flat in slot order: slot i
// occupies Keys()[i*k : (i+1)*k], the layout of a flat relation. The slice is
// shared with the map; do not mutate it, and do not insert into the map while
// it is in use as a relation.
func (m *TupleMap) Keys() []Value { return m.keys }

// Val returns the payload stored at a slot.
func (m *TupleMap) Val(slot int32) int64 { return m.vals[slot] }

// hashOf hashes a key with mapHash, or with the hash a test put in.
func (m *TupleMap) hashOf(key []Value) uint64 {
	if m.hash != nil {
		return m.hash(key)
	}
	return mapHash(key)
}

func (m *TupleMap) equalAt(slot int32, key []Value) bool {
	at := m.keys[int(slot)*m.k:]
	for i, v := range key {
		if at[i] != v {
			return false
		}
	}
	return true
}

// grow doubles the probe table and re-seats every slot.
func (m *TupleMap) grow() {
	size := len(m.table) * 2
	m.table = make([]int32, size)
	m.mask = uint64(size - 1)
	for slot := int32(0); int(slot) < len(m.vals); slot++ {
		i := m.hashOf(m.Key(slot)) & m.mask
		for m.table[i] != 0 {
			i = (i + 1) & m.mask
		}
		m.table[i] = slot + 1
	}
}

// Find returns the slot of the tuple, or -1 if absent.
func (m *TupleMap) Find(key []Value) int32 {
	i := m.hashOf(key) & m.mask
	for {
		s := m.table[i]
		if s == 0 {
			return -1
		}
		if m.equalAt(s-1, key) {
			return s - 1
		}
		i = (i + 1) & m.mask
	}
}

// Insert returns the slot of the tuple, creating it (with payload 0) if
// absent; isNew reports whether this call created the slot.
func (m *TupleMap) Insert(key []Value) (slot int32, isNew bool) {
	if (len(m.vals)+1)*4 > len(m.table)*3 { // keep load below 3/4
		m.grow()
	}
	i := m.hashOf(key) & m.mask
	for {
		s := m.table[i]
		if s == 0 {
			slot = int32(len(m.vals))
			m.keys = append(m.keys, key...)
			m.vals = append(m.vals, 0)
			m.table[i] = slot + 1
			return slot, true
		}
		if m.equalAt(s-1, key) {
			return s - 1, false
		}
		i = (i + 1) & m.mask
	}
}

// Add accumulates delta into the tuple's payload, creating the tuple if
// absent, and returns the tuple's slot.
func (m *TupleMap) Add(key []Value, delta int64) int32 {
	slot, _ := m.Insert(key)
	m.vals[slot] += delta
	return slot
}

// Get returns the tuple's payload (0 if absent).
func (m *TupleMap) Get(key []Value) int64 {
	slot := m.Find(key)
	if slot < 0 {
		return 0
	}
	return m.vals[slot]
}
